package accel

import (
	"crypto/cipher"
	"encoding/binary"
	"errors"

	"salus/internal/channel"
)

// The job data plane. Every byte of job data that crosses the untrusted
// shell between the user enclave and the fabric is AES-GCM under the data
// key the secure register channel installed: each DMA burst of input
// carries its ciphertext followed by a tag, and the output carries a tag
// too — over its ciphertext for the kernels that encrypt their output
// (Table 4: Affine, Rendering), over the plaintext as additional data for
// the rest. This extends §4.5's encryption-only memory engine with
// integrity, as ShEF's Shield authenticates every off-chip access: a
// flipped, replayed or dropped DMA burst is refused instead of computed on.
//
// Both ends derive everything from the run's JobIV and the register values
// the fabric reads for it, so no nonce or tag schedule ever crosses the bus
// on its own:
//
//   - The nonce is bytes [0:12] of the JobIV, with the top bit flipped for
//     the output and an input burst's index XOR-folded into bytes [4:8].
//     Within an epoch the job index (bytes [8:12]), the direction bit and
//     the burst index occupy disjoint bits, so no two nonces coincide.
//     Every epoch draws a fresh random base IV; the data key is the owner's
//     and also seals under random nonces, so two epochs (on this board or a
//     sibling) or an owner seal collide only when 96 random bits land within
//     the few bits an epoch varies: never, in practice.
//   - The additional data binds the four parameters, the input length, the
//     output address, the output cap and the job index; an input burst's
//     adds its index and a last-burst flag, and the output's adds the tag of
//     the last input burst, tying the result to the input it was computed on.

// TagSize is the GCM tag every input burst and every output carries.
const TagSize = 16

// nonceSize is the data plane's GCM nonce: the standard 12 bytes, so the
// user enclave's data-key AEAD serves it.
const nonceSize = 12

// SealedBurst is the device-memory stride of a sealed input: up to
// channel.DMABurst bytes of ciphertext, then their tag.
const SealedBurst = channel.DMABurst + TagSize

// Additional-data layout: the job's part (four parameters, input length,
// output address and output cap at 8 bytes each, job index at 4), then an
// input burst's index (4) and last-burst flag (1), or the output's
// binding of the input tag.
const (
	jobADSize   = 4*8 + 3*8 + 4
	inputADSize = jobADSize + 4 + 1
)

// OutputSlack is the capacity a buffer holding an output needs past the
// output's bytes: the output's additional data follows a plaintext output
// in place, so checking or tagging one copies nothing.
const OutputSlack = jobADSize + TagSize

// ErrIntegrity reports a data-plane burst or output whose tag does not
// verify: tampered, replayed, dropped, or sealed for another job.
var ErrIntegrity = errors.New("accel: data-plane authentication failed")

// DataJob is one run as both ends of the data plane bind it: its IV and
// the register values the fabric reads for it.
type DataJob struct {
	IV      [16]byte // the run's JobIV
	Index   uint32   // the run's slot in the IV schedule
	Params  [4]uint64
	InLen   uint64 // plaintext input bytes (RegInLen)
	OutAddr uint64
	OutCap  uint64 // Kernel.OutputCap(Params, InLen)
}

// InputBursts is how many bursts an inLen-byte input is sealed in: one per
// channel.DMABurst bytes, and one empty burst for an empty input, so every
// keyed run checks a tag.
func InputBursts(inLen uint64) uint64 {
	return max(1, (inLen+channel.DMABurst-1)/channel.DMABurst)
}

// SealedInLen is the device memory an inLen-byte input takes sealed.
func SealedInLen(inLen uint64) uint64 { return inLen + TagSize*InputBursts(inLen) }

// DataPlane is one end's data-plane scratch: the nonce, additional data and
// tag of the burst or output in flight. cipher.AEAD's methods are interface
// calls, which move their arguments to the heap, so the scratch lives in
// the long-lived object that holds the DataPlane (a System, a Core) and a
// burst costs no allocation. A DataPlane is not safe for concurrent use;
// an AEAD is, so two goroutines share one AEAD with a DataPlane each.
type DataPlane struct {
	nonce [nonceSize]byte
	ad    [OutputSlack]byte
	tag   [TagSize]byte
}

// setNonce derives the nonce of j's output, or of its input burst burst.
func (d *DataPlane) setNonce(j *DataJob, output bool, burst uint32) []byte {
	copy(d.nonce[:], j.IV[:nonceSize])
	if output {
		d.nonce[0] ^= 0x80
	}
	binary.BigEndian.PutUint32(d.nonce[4:], binary.BigEndian.Uint32(d.nonce[4:])^burst)
	return d.nonce[:]
}

// putJobAD writes the job's part of the additional data.
func (d *DataPlane) putJobAD(j *DataJob) {
	b := d.ad[:0]
	for _, p := range j.Params {
		b = binary.BigEndian.AppendUint64(b, p)
	}
	b = binary.BigEndian.AppendUint64(b, j.InLen)
	b = binary.BigEndian.AppendUint64(b, j.OutAddr)
	b = binary.BigEndian.AppendUint64(b, j.OutCap)
	binary.BigEndian.AppendUint32(b, j.Index)
}

// inputAD is the additional data of j's input burst burst.
func (d *DataPlane) inputAD(j *DataJob, burst uint32) []byte {
	d.putJobAD(j)
	binary.BigEndian.PutUint32(d.ad[jobADSize:], burst)
	d.ad[jobADSize+4] = 0
	if uint64(burst)+1 == InputBursts(j.InLen) {
		d.ad[jobADSize+4] = 1
	}
	return d.ad[:inputADSize]
}

// outputAD is the additional data of j's output, which binds inTag, the
// tag of j's last input burst.
func (d *DataPlane) outputAD(j *DataJob, inTag []byte) []byte {
	d.putJobAD(j)
	copy(d.ad[jobADSize:], inTag)
	return d.ad[:OutputSlack]
}

// SealBurst appends input burst burst of j, sealed, to dst: the ciphertext
// of plain, then its tag. plain may lie exactly where the ciphertext goes.
func (d *DataPlane) SealBurst(dst []byte, aead cipher.AEAD, j *DataJob, burst uint32, plain []byte) []byte {
	return aead.Seal(dst, d.setNonce(j, false, burst), plain, d.inputAD(j, burst))
}

// OpenBurst checks input burst burst of j, its ciphertext followed by its
// tag, and appends its plaintext to dst (which may be sealed[:0]). A burst
// that does not verify is ErrIntegrity.
func (d *DataPlane) OpenBurst(dst []byte, aead cipher.AEAD, j *DataJob, burst uint32, sealed []byte) ([]byte, error) {
	out, err := aead.Open(dst, d.setNonce(j, false, burst), sealed, d.inputAD(j, burst))
	if err != nil {
		return nil, ErrIntegrity
	}
	return out, nil
}

// SealOutput tags j's output out in place for the trip to the host and
// returns out followed by its tag: out is encrypted when encrypt is set
// and authenticated as additional data otherwise. inTag is the tag of j's
// last input burst. Without OutputSlack bytes of capacity past out, it
// allocates.
func (d *DataPlane) SealOutput(aead cipher.AEAD, j *DataJob, inTag, out []byte, encrypt bool) []byte {
	nonce, ad := d.setNonce(j, true, 0), d.outputAD(j, inTag)
	if encrypt {
		return aead.Seal(out[:0], nonce, out, ad)
	}
	n := len(out)
	msg := append(out, ad...)
	tag := aead.Seal(d.tag[:0], nonce, nil, msg)
	return append(msg[:n], tag...)
}

// OpenOutput checks j's output as it came off the bus — sealed is the
// output followed by its tag — and returns the output in place, decrypted
// when encrypted. sealed needs OutputSlack-TagSize bytes of capacity past
// its length, or it allocates. An output that does not verify is
// ErrIntegrity, and sealed's bytes are then unspecified.
func (d *DataPlane) OpenOutput(aead cipher.AEAD, j *DataJob, inTag, sealed []byte, encrypted bool) ([]byte, error) {
	if len(sealed) < TagSize {
		return nil, ErrIntegrity
	}
	nonce, ad := d.setNonce(j, true, 0), d.outputAD(j, inTag)
	if encrypted {
		out, err := aead.Open(sealed[:0], nonce, sealed, ad)
		if err != nil {
			return nil, ErrIntegrity
		}
		return out, nil
	}
	n := len(sealed) - TagSize
	copy(d.tag[:], sealed[n:])
	msg := append(sealed[:n], ad...)
	_, err := aead.Open(nil, nonce, d.tag[:], msg)
	clear(msg[n:])
	if err != nil {
		return nil, ErrIntegrity
	}
	return sealed[:n], nil
}

// SealInput returns j's input plain sealed as device memory holds it once
// a host has DMA-written every burst: each burst's ciphertext and tag, one
// SealedBurst apart. The job path seals burst by burst into its DMA frames
// instead; this is the whole-input form for a driver that writes the input
// in one go.
func SealInput(aead cipher.AEAD, j *DataJob, plain []byte) []byte {
	var d DataPlane
	n := uint64(len(plain))
	out := make([]byte, 0, SealedInLen(n))
	for b := uint64(0); b < InputBursts(n); b++ {
		out = d.SealBurst(out, aead, j, uint32(b), plain[b*channel.DMABurst:min((b+1)*channel.DMABurst, n)])
	}
	return out
}
