package bitstream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"salus/internal/cryptoutil"
	"salus/internal/netlist"
)

// Encode serialises the image into the wire container loaded through the
// shell: magic, header block, padding and bus-width detection words, sync
// word, configuration packets (IDCODE, FAR, WCFG, FDRI with frame data),
// global CRC, and DESYNC.
func (im *Image) Encode() []byte {
	return im.appendEncoded(make([]byte, 0, im.encodedLen(false)), false)
}

// EncodeCompressed serialises with multi-frame-write compression: runs of
// identical consecutive frames are written once with a repeat count, as the
// Xilinx bitstream compression option does. Unused (zeroed) partition area
// collapses dramatically; place-and-route output barely compresses.
func (im *Image) EncodeCompressed() []byte {
	return im.appendEncoded(make([]byte, 0, im.encodedLen(true)), true)
}

// EncodedLen is the length of Encode's container.
func (im *Image) EncodedLen() int { return im.encodedLen(false) }

// headerLen is the length of the header block after its length word.
func (h Header) headerLen() int {
	n := 3*4 + len(h.Device) + len(h.DesignName) + len(h.LogicID) + 6*4
	for _, c := range h.Cells {
		n += 4 + len(c.Path) + 2*4
	}
	return n
}

// encodedLen is the container's length: magic and header block, 6 words of
// front matter, 8 of packets, the frame payload, 4 of trailer.
func (im *Image) encodedLen(compressed bool) int {
	payload := len(im.store)
	if compressed {
		payload = 0
		im.frameRuns(func(int, []byte) { payload += 4 + im.Header.FrameWords*4 })
	}
	return len(Magic) + 4 + im.Header.headerLen() + (6+8+4)*4 + payload
}

// appendEncoded appends the container to out; with encodedLen bytes of
// spare capacity in out it writes them in place.
func (im *Image) appendEncoded(out []byte, compressed bool) []byte {
	h := im.Header
	out = append(out, Magic...)
	out = appendU32(out, uint32(h.headerLen()))
	out = appendString(out, h.Device)
	out = appendU32(out, h.IDCode)
	out = appendString(out, h.DesignName)
	out = appendString(out, h.LogicID)
	out = appendU32(out, h.RPBase)
	out = appendU32(out, uint32(h.Frames))
	out = appendU32(out, uint32(h.FrameWords))
	flags := uint32(0)
	if compressed {
		flags |= flagCompressed
	}
	out = appendU32(out, flags)
	out = appendU32(out, uint32(len(h.Cells)))
	for _, c := range h.Cells {
		out = appendString(out, c.Path)
		out = appendU32(out, uint32(c.FrameBase))
		out = appendU32(out, uint32(c.FrameCount))
	}

	// Padding and sync, as a real bitstream front matter.
	out = appendU32(out, 0xFFFFFFFF)
	out = appendU32(out, 0xFFFFFFFF)
	out = appendU32(out, 0x000000BB) // bus width sync
	out = appendU32(out, 0x11220044) // bus width detect
	out = appendU32(out, 0xFFFFFFFF)
	out = appendU32(out, SyncWord)

	// Configuration packets.
	out = appendU32(out, type1(regIDCODE, 1))
	out = appendU32(out, h.IDCode)
	out = appendU32(out, type1(regFAR, 1))
	out = appendU32(out, h.RPBase)
	out = appendU32(out, type1(regCMD, 1))
	out = appendU32(out, cmdWCFG)
	out = appendU32(out, type1(regFDRI, 0))
	fdriAt := len(out)
	out = appendU32(out, 0) // word count, known once the payload is written
	payloadAt := len(out)
	if compressed {
		// Multi-frame write: [repeat uint32][frame bytes] per run.
		im.frameRuns(func(repeat int, frame []byte) {
			out = append(appendU32(out, uint32(repeat)), frame...)
		})
	} else {
		out = append(out, im.store...)
		fb := h.FrameWords * 4
		for i, f := range im.patched {
			copy(out[payloadAt+i*fb:], f)
		}
	}

	binary.BigEndian.PutUint32(out[fdriAt:], type2(uint32((len(out)-payloadAt)/4)))

	// Global CRC over the frame payload, then desync.
	crc := crc32.ChecksumIEEE(out[payloadAt:])
	out = appendU32(out, type1(regCRC, 1))
	out = appendU32(out, crc)
	out = appendU32(out, type1(regCMD, 1))
	out = appendU32(out, cmdDESYNC)
	return out
}

// flagCompressed marks multi-frame-write compression in the header flags.
const flagCompressed = 1 << 0

// maxFDRIWords is the largest word count a type-2 FDRI packet can carry,
// and so the largest partition a container can describe.
const maxFDRIWords = 0x07FFFFFF

// frameRuns calls fn once per run of identical consecutive frames.
func (im *Image) frameRuns(fn func(repeat int, frame []byte)) {
	for i := 0; i < im.Header.Frames; {
		j := i + 1
		for j < im.Header.Frames && bytes.Equal(im.frame(j), im.frame(i)) {
			j++
		}
		fn(j-i, im.frame(i))
		i = j
	}
}

// expandFrames inverts the multi-frame-write records into an image's
// backing store.
func expandFrames(payload []byte, frames, frameBytes int) ([]byte, error) {
	out := make([]byte, 0, frames*frameBytes)
	r := &reader{data: payload}
	for len(out) < frames*frameBytes {
		repeat := int(r.u32())
		frame := r.take(frameBytes)
		if r.err != nil || repeat <= 0 || repeat > frames {
			return nil, fmt.Errorf("%w: bad multi-frame-write record", ErrCorrupt)
		}
		for k := 0; k < repeat; k++ {
			out = append(out, frame...)
		}
	}
	if len(out) != frames*frameBytes || r.remaining() != 0 {
		return nil, fmt.Errorf("%w: compressed payload does not expand to the partition", ErrCorrupt)
	}
	return out, nil
}

// Decode parses and validates a plaintext container produced by Encode,
// checking magic, sync word, packet structure, the global CRC, and every
// frame's ECC word. The image of an uncompressed container borrows data's
// frame payload rather than copying it: data must stay unmodified for as
// long as the image is in use, and the image never writes to it.
//
// The global CRC runs on its own goroutine beside the rest of the checks;
// a CRC mismatch wins over whatever else they find, as it would if the
// checks ran one after another.
func Decode(data []byte) (*Image, error) {
	if IsEncrypted(data) {
		return nil, ErrEncrypted
	}
	r := &reader{data: data}
	if string(r.take(len(Magic))) != Magic {
		return nil, ErrBadMagic
	}
	hdrLen := int(r.u32())
	if r.err != nil || hdrLen < 0 || hdrLen > r.remaining() {
		return nil, ErrCorrupt
	}
	// The header's strings are substrings of one copy of the header block.
	block := r.take(hdrLen)
	hr := &reader{data: block, text: string(block)}
	var h Header
	h.Device = hr.str()
	h.IDCode = hr.u32()
	h.DesignName = hr.str()
	h.LogicID = hr.str()
	h.RPBase = hr.u32()
	h.Frames = int(hr.u32())
	h.FrameWords = int(hr.u32())
	flags := hr.u32()
	nc := int(hr.u32())
	// A cell entry takes at least 12 bytes, which bounds the table.
	if hr.err != nil || h.Frames < 0 || h.FrameWords < 2 || h.Frames > maxFDRIWords/h.FrameWords || nc < 0 || nc > hr.remaining()/12 {
		return nil, ErrCorrupt
	}
	compressed := flags&flagCompressed != 0
	if nc > 0 {
		h.Cells = make([]netlist.Location, 0, nc)
	}
	for i := 0; i < nc; i++ {
		var c netlist.Location
		c.Path = hr.str()
		c.FrameBase = int(hr.u32())
		c.FrameCount = int(hr.u32())
		if hr.err != nil {
			return nil, ErrCorrupt
		}
		h.Cells = append(h.Cells, c)
	}

	// Scan front matter until the sync word.
	synced := false
	for r.remaining() >= 4 {
		if r.u32() == SyncWord {
			synced = true
			break
		}
	}
	if !synced || r.err != nil {
		return nil, fmt.Errorf("%w: no sync word", ErrCorrupt)
	}

	expectPacket(r, regIDCODE)
	if id := r.u32(); id != h.IDCode {
		return nil, fmt.Errorf("%w: IDCODE %#x != header %#x", ErrCorrupt, id, h.IDCode)
	}
	expectPacket(r, regFAR)
	r.u32() // frame address
	expectPacket(r, regCMD)
	if cmd := r.u32(); cmd != cmdWCFG {
		return nil, fmt.Errorf("%w: expected WCFG, got %#x", ErrCorrupt, cmd)
	}
	expectPacket(r, regFDRI)
	words := int(r.u32() & 0x07FFFFFF)
	if r.err != nil {
		return nil, ErrCorrupt
	}
	if !compressed && words != h.Frames*h.FrameWords {
		return nil, fmt.Errorf("%w: FDRI word count %d != %d frames x %d words", ErrCorrupt, words, h.Frames, h.FrameWords)
	}
	payload := r.take(words * 4)
	if r.err != nil {
		return nil, ErrCorrupt
	}

	expectPacket(r, regCRC)
	crc := r.u32()
	if r.err != nil {
		return nil, ErrCorrupt
	}
	crcOK := make(chan bool, 1)
	go func() { crcOK <- crc32.ChecksumIEEE(payload) == crc }()
	im, err := decodeFrames(r, h, payload, compressed)
	if !<-crcOK {
		return nil, ErrCRC
	}
	return im, err
}

// decodeFrames is the rest of Decode after the global CRC word: the DESYNC
// trailer, then the image over the payload — expanded when compressed — and
// its frame ECC walk.
func decodeFrames(r *reader, h Header, payload []byte, compressed bool) (*Image, error) {
	expectPacket(r, regCMD)
	if cmd := r.u32(); r.err == nil && cmd != cmdDESYNC {
		return nil, fmt.Errorf("%w: expected DESYNC trailer, got %#x", ErrCorrupt, cmd)
	}
	if r.err != nil {
		return nil, r.err
	}

	im := &Image{Header: h, store: payload, owned: compressed}
	if compressed {
		var err error
		if im.store, err = expandFrames(payload, h.Frames, h.FrameWords*4); err != nil {
			return nil, err
		}
	}
	if err := im.VerifyFrames(); err != nil {
		return nil, err
	}
	return im, nil
}

// Digest returns the SHA-256 digest H of the encoded bitstream — the value
// the developer publishes and the data owner forwards through the
// attestation chain (§4.2). Because the header embeds the cell table, H
// also covers the Loc metadata.
func (im *Image) Digest() [32]byte {
	return cryptoutil.Digest(im.Encode())
}

// Encrypt seals an encoded plaintext container under the per-device key,
// modelling the AES-GCM-256 bitstream encryption the paper aligns with
// Vivado's (XAPP1267). The device profile name is bound as additional data.
func Encrypt(encoded []byte, deviceKey []byte, device string) ([]byte, error) {
	if len(encoded) < len(Magic) || string(encoded[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	return seal(deviceKey, device, len(encoded), func([]byte) []byte { return encoded })
}

// Encrypt is Encrypt of the image's Encode, with the container encoded
// straight into the sealed buffer and sealed over itself: no plaintext copy
// of it is left behind.
func (im *Image) Encrypt(deviceKey []byte, device string) ([]byte, error) {
	return seal(deviceKey, device, im.EncodedLen(), func(dst []byte) []byte {
		return im.appendEncoded(dst, false)[len(dst):]
	})
}

// seal builds EncMagic ‖ nonce ‖ ciphertext ‖ tag of an n-byte container in
// one buffer. plaintext returns the container: one the caller holds, or one
// it appends to dst — the buffer up to the ciphertext — which is then
// sealed in place.
func seal(deviceKey []byte, device string, n int, plaintext func(dst []byte) []byte) ([]byte, error) {
	aead, err := cryptoutil.NewAEAD(deviceKey)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(EncMagic)+cryptoutil.NonceSize, len(EncMagic)+n+cryptoutil.SealOverhead)
	copy(out, EncMagic)
	pt := plaintext(out)
	return cryptoutil.AppendSealWith(out[:len(EncMagic)], aead, pt, []byte(device)), nil
}

// IsEncrypted reports whether data is an encrypted container.
func IsEncrypted(data []byte) bool {
	return len(data) >= len(EncMagic) && string(data[:len(EncMagic)]) == EncMagic
}

// Decrypt opens an encrypted container. Only the FPGA's internal
// configuration engine holds the device key, so in the model this is called
// from inside the fabric (and from tests).
func Decrypt(data []byte, deviceKey []byte, device string) ([]byte, error) {
	if !IsEncrypted(data) {
		return nil, ErrBadMagic
	}
	return cryptoutil.Open(deviceKey, data[len(EncMagic):], []byte(device))
}

// type1 builds a simplified type-1 packet header: write to register reg
// with an immediate word count.
func type1(reg uint32, words uint32) uint32 {
	return 0x30000000 | reg<<13 | (words & 0x7FF)
}

// type2 builds a type-2 packet header carrying a large word count.
func type2(words uint32) uint32 {
	return 0x50000000 | (words & 0x07FFFFFF)
}

func expectPacket(r *reader, reg uint32) {
	if r.err != nil {
		return
	}
	w := r.u32()
	if r.err != nil {
		return
	}
	if w>>28 == 0x5 {
		// type-2 packet: the word count was consumed by the caller's u32.
		r.unread(4)
		return
	}
	if w>>28 != 0x3 || (w>>13)&0x1F != reg {
		r.err = fmt.Errorf("%w: expected packet for reg %#x, got word %#x", ErrCorrupt, reg, w)
	}
}

type reader struct {
	data []byte
	text string // data as a string, for str
	pos  int
	err  error
}

func (r *reader) remaining() int { return len(r.data) - r.pos }

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.remaining() < n {
		r.err = ErrCorrupt
		return nil
	}
	out := r.data[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *reader) unread(n int) {
	if r.pos >= n {
		r.pos -= n
	}
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// str reads a length-prefixed string as a substring of text, so a reader
// over a header block copies it once rather than once per string.
func (r *reader) str() string {
	n := int(r.u32())
	if r.err != nil || n < 0 || n > r.remaining() {
		r.err = ErrCorrupt
		return ""
	}
	at := r.pos
	r.take(n)
	return r.text[at : at+n]
}

func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

func appendString(b []byte, s string) []byte {
	return append(appendU32(b, uint32(len(s))), s...)
}
