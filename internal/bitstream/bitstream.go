// Package bitstream implements the configuration bitstream container used
// by the simulated FPGA: a Xilinx-like framing of the device configuration
// memory (§2.3 of the paper).
//
// A bitstream is a sequence of initial values for configuration memory
// cells. The container mirrors the structure of a real partial bitstream:
// a human-readable header, dummy/bus-width padding, the 0xAA995566 sync
// word, type-1/type-2 configuration packets that address the reconfigurable
// partition and stream frame data, and a trailing global CRC. Each frame
// additionally carries an in-frame ECC word (as UltraScale frames do),
// which bitstream manipulation must recompute after editing initial values.
//
// The header also carries the named-cell table (hierarchical path → frame
// range). This mirrors the Loc_Keyattest metadata the developer records
// alongside the bitstream: cell *locations* are not secret — the secrecy of
// an injected key rests solely on bitstream encryption (see Encrypt).
package bitstream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"salus/internal/netlist"
)

// Container constants.
const (
	// Magic identifies a plaintext bitstream container.
	Magic = "SLSBSTR1"
	// EncMagic identifies an encrypted bitstream container.
	EncMagic = "SLSBENC1"
	// SyncWord is the configuration sync word (as on Xilinx devices).
	SyncWord = 0xAA995566
)

// Configuration packet opcodes (simplified type-1 register writes).
const (
	regIDCODE = 0x0C
	regFAR    = 0x01
	regCMD    = 0x04
	regFDRI   = 0x02
	regCRC    = 0x00

	cmdWCFG   = 0x01
	cmdDESYNC = 0x0D
)

// Errors returned by Decode.
var (
	ErrBadMagic  = errors.New("bitstream: bad magic")
	ErrCorrupt   = errors.New("bitstream: malformed container")
	ErrCRC       = errors.New("bitstream: global CRC mismatch")
	ErrFrameECC  = errors.New("bitstream: frame ECC mismatch")
	ErrEncrypted = errors.New("bitstream: container is encrypted")
)

// Header describes the bitstream target and layout.
type Header struct {
	Device     string // device profile name
	IDCode     uint32
	DesignName string
	LogicID    string // identity of the logic the fabric instantiates
	RPBase     uint32 // frame address of the partition base
	Frames     int    // number of frames
	FrameWords int    // 32-bit words per frame (incl. trailing ECC word)
	Cells      []netlist.Location
}

// Image is a parsed (plaintext) bitstream.
type Image struct {
	Header Header
	// store holds Header.Frames frames of Header.FrameWords*4 bytes back to
	// back. An image built by FromPlaced, or expanded from a compressed
	// container, owns it. An image decoded from an uncompressed container
	// borrows the container's own payload bytes and never writes them — the
	// container may be a developer's package shared by a whole fleet — so its
	// edits go to patched instead.
	store []byte
	owned bool
	// patched holds private copies of the frames a borrowing image has
	// edited, by frame index; a frame here supersedes its bytes in store.
	patched map[int][]byte
}

// frameDataBytes returns payload bytes per frame (excluding the ECC word).
func (h Header) frameDataBytes() int { return (h.FrameWords - 1) * 4 }

// FromPlaced assembles the partial bitstream for an implemented design.
// Frames outside named BRAM cells carry the LUT/FF routing configuration,
// modelled as a deterministic pseudo-random pattern derived from the design
// identity and seed — so any change to the design changes the bitstream,
// exactly as place-and-route output would. logicID names the functional
// model the fabric instantiates once the partition is programmed.
func FromPlaced(pl *netlist.Placed, logicID string) *Image {
	p := pl.Profile
	h := Header{
		Device:     p.Name,
		IDCode:     p.IDCode,
		DesignName: pl.Design.Name,
		LogicID:    logicID,
		RPBase:     0,
		Frames:     p.FramesPerSLR,
		FrameWords: p.FrameWords,
	}
	for _, c := range pl.Cells() {
		h.Cells = append(h.Cells, netlist.Location{Path: c.Path, FrameBase: c.FrameBase, FrameCount: c.FrameCount})
	}

	im := &Image{Header: h, store: make([]byte, h.Frames*h.FrameWords*4), owned: true}

	// Fill the CLB/routing area with the design-dependent pattern.
	fill := newConfigPattern(pl)
	fdb := h.frameDataBytes()
	inCell := make([]bool, h.Frames)
	for _, c := range pl.Cells() {
		for i := 0; i < c.FrameCount; i++ {
			inCell[c.FrameBase+i] = true
		}
	}
	for f := 0; f < h.Frames; f++ {
		if !inCell[f] {
			fill.read(im.frame(f)[:fdb])
		}
	}

	// Lay down BRAM init contents, then give every frame its ECC word.
	for _, c := range pl.Cells() {
		im.writeCell(netlist.Location{Path: c.Path, FrameBase: c.FrameBase, FrameCount: c.FrameCount}, 0, c.Init)
	}
	for f := 0; f < h.Frames; f++ {
		im.sealFrame(f)
	}
	return im
}

// configPattern is a deterministic byte stream derived from the placed
// design; see FromPlaced.
type configPattern struct {
	state uint64
}

func newConfigPattern(pl *netlist.Placed) *configPattern {
	seed := uint64(0x9E3779B97F4A7C15)
	mix := func(s string) {
		for _, b := range []byte(s) {
			seed = (seed ^ uint64(b)) * 0x100000001B3
		}
	}
	mix(pl.Design.Name)
	for _, m := range pl.Design.Modules {
		mix(m.Name)
		seed = (seed ^ uint64(m.Res.LUT)) * 0x100000001B3
		seed = (seed ^ uint64(m.Res.Register)) * 0x100000001B3
		seed = (seed ^ uint64(m.Res.BRAM)) * 0x100000001B3
	}
	seed ^= uint64(pl.Seed)
	return &configPattern{state: seed}
}

func (c *configPattern) next() uint64 {
	// xorshift64*
	x := c.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	c.state = x
	return x * 0x2545F4914F6CDD1D
}

func (c *configPattern) read(dst []byte) {
	for ; len(dst) >= 8; dst = dst[8:] {
		binary.LittleEndian.PutUint64(dst, c.next())
	}
	if len(dst) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], c.next())
		copy(dst, tail[:])
	}
}

// frameECC computes the in-frame ECC word over the frame's data words.
func frameECC(data []byte) uint32 {
	return crc32.ChecksumIEEE(data)
}

// frame returns frame i (data + ECC word) for reading.
func (im *Image) frame(i int) []byte {
	if f, ok := im.patched[i]; ok {
		return f
	}
	fb := im.Header.FrameWords * 4
	return im.store[i*fb : (i+1)*fb]
}

// writableFrame returns frame i for writing: the store's own bytes when the
// image owns them, a private copy (made on first use) when it borrows them.
func (im *Image) writableFrame(i int) []byte {
	if im.owned {
		return im.frame(i)
	}
	f, ok := im.patched[i]
	if !ok {
		if im.patched == nil {
			im.patched = make(map[int][]byte)
		}
		f = append([]byte(nil), im.frame(i)...)
		im.patched[i] = f
	}
	return f
}

// sealFrame recomputes one frame's ECC word.
func (im *Image) sealFrame(i int) {
	fdb := im.Header.frameDataBytes()
	f := im.writableFrame(i)
	binary.BigEndian.PutUint32(f[fdb:], frameECC(f[:fdb]))
}

// Frames returns the number of frames.
func (im *Image) Frames() int { return im.Header.Frames }

// Frame returns a copy of frame i (data + ECC word).
func (im *Image) Frame(i int) []byte {
	return append([]byte(nil), im.frame(i)...)
}

// Wipe zeroes every byte the image has written: the whole store of an
// image that owns it, the patched frames of one that borrows. An image that
// held injected secrets is wiped once they have been sealed; a borrowed
// container is never touched. The wiped frames read as zero afterwards.
func (im *Image) Wipe() {
	if im.owned {
		clear(im.store)
	}
	for _, f := range im.patched {
		clear(f)
	}
}

// VerifyFrames checks every frame's ECC word.
func (im *Image) VerifyFrames() error {
	fdb := im.Header.frameDataBytes()
	for i := 0; i < im.Header.Frames; i++ {
		if f := im.frame(i); binary.BigEndian.Uint32(f[fdb:]) != frameECC(f[:fdb]) {
			return fmt.Errorf("%w: frame %d", ErrFrameECC, i)
		}
	}
	return nil
}

// Cell returns the location of a named cell from the header table.
func (im *Image) Cell(path string) (netlist.Location, bool) {
	for _, c := range im.Header.Cells {
		if c.Path == path {
			return c, true
		}
	}
	return netlist.Location{}, false
}

// CellBytes reads n bytes of a cell's initial content starting at offset.
func (im *Image) CellBytes(loc netlist.Location, offset, n int) ([]byte, error) {
	return im.AppendCellBytes(make([]byte, 0, n), loc, offset, n)
}

// AppendCellBytes is CellBytes appending to dst, so a caller with room in
// dst reads a cell without allocating.
func (im *Image) AppendCellBytes(dst []byte, loc netlist.Location, offset, n int) ([]byte, error) {
	if err := im.checkCellRange(loc, offset, n); err != nil {
		return nil, err
	}
	fdb := im.Header.frameDataBytes()
	for end, pos := len(dst)+n, offset; len(dst) < end; pos += fdb - pos%fdb {
		piece := im.frame(loc.FrameBase + pos/fdb)[pos%fdb : fdb]
		dst = append(dst, piece[:min(len(piece), end-len(dst))]...)
	}
	return dst, nil
}

// writeCell writes data into a cell's initial content at offset without
// resealing frames.
func (im *Image) writeCell(loc netlist.Location, offset int, data []byte) {
	fdb := im.Header.frameDataBytes()
	for pos := offset; len(data) > 0; pos += fdb - pos%fdb {
		data = data[copy(im.writableFrame(loc.FrameBase + pos/fdb)[pos%fdb:fdb], data):]
	}
}

// SetCellBytes writes data into a cell's initial content at offset and
// reseals the touched frames' ECC words. This is the primitive the
// manipulation tool builds on.
func (im *Image) SetCellBytes(loc netlist.Location, offset int, data []byte) error {
	if err := im.checkCellRange(loc, offset, len(data)); err != nil {
		return err
	}
	im.writeCell(loc, offset, data)
	fdb := im.Header.frameDataBytes()
	first := loc.FrameBase + offset/fdb
	last := loc.FrameBase + (offset+len(data)-1)/fdb
	for f := first; f <= last; f++ {
		im.sealFrame(f)
	}
	return nil
}

func (im *Image) checkCellRange(loc netlist.Location, offset, n int) error {
	if loc.FrameBase < 0 || loc.FrameBase+loc.FrameCount > im.Header.Frames {
		return fmt.Errorf("bitstream: cell %s frames [%d,%d) outside image", loc.Path, loc.FrameBase, loc.FrameBase+loc.FrameCount)
	}
	capacity := loc.FrameCount * im.Header.frameDataBytes()
	if offset < 0 || n < 0 || offset+n > capacity {
		return fmt.Errorf("bitstream: cell %s range [%d,%d) outside capacity %d", loc.Path, offset, offset+n, capacity)
	}
	return nil
}
