package rpc

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net"
	"sync/atomic"
	"unsafe"
)

// WireEncoder is implemented by a message type that writes its own binary
// payload; Call and Typed use it in place of encoding/json whenever the
// params or result type has it.
type WireEncoder interface {
	EncodeWire(e *Encoder)
}

// WireDecoder is the receiving half of WireEncoder. Byte sections it decodes
// alias the frame they arrived in; see Handler for how long that is valid.
type WireDecoder interface {
	DecodeWire(body []byte) error
}

// Encoder builds one frame: scratch bytes it owns, and byte sections it
// borrows from the caller, spliced in by offset and sent straight from the
// caller's memory. Every integer is big-endian.
type Encoder struct {
	buf      []byte
	cuts     []cut // borrowed sections, by ascending offset into buf
	borrowed int   // their total length
	err      error

	segs [][]byte    // writeTo's gather list, kept for its capacity
	vec  net.Buffers // the view of segs that WriteTo consumes
}

type cut struct {
	at int
	b  []byte
}

// Byte appends one byte.
func (e *Encoder) Byte(v byte) { e.buf = append(e.buf, v) }

// Uint32 appends a fixed-width count or length.
func (e *Encoder) Uint32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }

// Uint64 appends a fixed-width integer.
func (e *Encoder) Uint64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

// String appends a short string behind a u16 length.
func (e *Encoder) String(s string) {
	if len(s) > math.MaxUint16 {
		e.err = fmt.Errorf("rpc: string field of %d bytes", len(s))
		return
	}
	e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(len(s)))
	e.buf = append(e.buf, s...)
}

// Section appends b behind a u32 length without copying it: b is only read,
// and must stay unchanged until the call that encodes it has returned.
func (e *Encoder) Section(b []byte) {
	e.Uint32(uint32(len(b))) // one past MaxFrame fails the frame, whatever the prefix says
	e.cuts = append(e.cuts, cut{len(e.buf), b})
	e.borrowed += len(b)
}

// writeTo sends the frame with one gathered write and returns its size on
// the wire, length prefix included.
func (e *Encoder) writeTo(w io.Writer) (int, error) {
	e.segs = e.segs[:0]
	off := 0
	for _, c := range e.cuts {
		e.segs = append(e.segs, e.buf[off:c.at], c.b)
		off = c.at
	}
	e.segs = append(e.segs, e.buf[off:])
	e.vec = e.segs
	n, err := e.vec.WriteTo(w)
	return int(n), err
}

// release drops the borrowed references and pools the encoder.
func (e *Encoder) release() {
	clear(e.cuts)
	clear(e.segs)
	e.cuts, e.borrowed, e.err = e.cuts[:0], 0, nil
	if cap(e.buf) <= maxPooledWriteBuf {
		encPool.Put(e)
	}
}

var errTruncated = errors.New("rpc: payload truncated")

// Decoder reads what Encoder wrote. It never reads past its body: the first
// field that does not fit latches an error and every later read returns a
// zero value, so a DecodeWire checks Done once, at the end.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder decodes body.
func NewDecoder(body []byte) Decoder { return Decoder{b: body} }

// take returns the next n bytes, aliasing the body; nil when n is zero.
func (d *Decoder) take(n int) []byte {
	if n < 0 || n > len(d.b) {
		d.b, d.err = nil, errTruncated
	}
	if n == 0 || d.err != nil {
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

func (d *Decoder) uint(width int) (v uint64) {
	for _, b := range d.take(width) {
		v = v<<8 | uint64(b)
	}
	return v
}

// Byte reads one byte.
func (d *Decoder) Byte() byte { return byte(d.uint(1)) }

// Uint64 reads a fixed-width integer.
func (d *Decoder) Uint64() uint64 { return d.uint(8) }

// String reads a u16-prefixed string that owns its bytes. A short one is
// interned (see intern), so a name that repeats from frame to frame, such
// as a kernel, tenant, class or shard, costs no allocation once seen.
func (d *Decoder) String() string { return intern(d.take(int(d.uint(2)))) }

// View reads a u16-prefixed string that aliases the body, as Section does:
// it is valid only as long as the body is (for a handler's params, until
// the handler returns; see Handler), and whoever keeps it longer must copy
// it with strings.Clone. It suits a field that is used once and dropped,
// such as a routing key that is hashed and forgotten, where interning would
// only churn the table.
func (d *Decoder) View() string {
	b := d.take(int(d.uint(2)))
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Section reads a u32-prefixed byte section, aliasing the body.
func (d *Decoder) Section() []byte { return d.take(int(d.uint(4))) }

// Count reads a u32 element count and refuses one the rest of the body
// cannot hold at minSize encoded bytes per element, so what a decoder
// allocates for the elements is bounded by bytes actually received.
func (d *Decoder) Count(minSize int) int {
	n := int(d.uint(4))
	if n < 0 || n > len(d.b)/minSize {
		d.b, d.err = nil, errTruncated
		return 0
	}
	return n
}

// Done reports the first read that failed, or bytes left undecoded.
func (d *Decoder) Done() error {
	if d.err == nil && len(d.b) > 0 {
		return fmt.Errorf("rpc: %d bytes after payload", len(d.b))
	}
	return d.err
}

// The intern table: internSlots slots, each holding the last string stored
// for the byte strings that hash to it. It is fixed and process-wide, so it
// never grows, and a name longer than internMaxLen is never stored in it.
const (
	internSlots  = 256
	internMaxLen = 64
)

var (
	internSeed  = maphash.MakeSeed()
	internTable [internSlots]atomic.Pointer[string]
)

// intern returns b as a string. When b's slot already holds an equal string
// it returns that one without allocating; otherwise it copies b and, when b
// is short enough, makes the copy the slot's string. Concurrent callers
// whose names share a slot evict each other and copy more often, but every
// one gets a string equal to its own bytes.
func intern(b []byte) string {
	if len(b) == 0 || len(b) > internMaxLen {
		return string(b)
	}
	slot := &internTable[maphash.Bytes(internSeed, b)%internSlots]
	if p := slot.Load(); p != nil && *p == string(b) {
		return *p
	}
	s := string(b)
	slot.Store(&s)
	return s
}

// Payload is the encoded params of a request or result of a response, still
// aliasing its frame.
type Payload struct {
	codec byte
	data  []byte
}

// Decode decodes the payload into v, by the codec its sender chose.
func (p Payload) Decode(v any) error {
	w, ok := v.(WireDecoder)
	switch {
	case p.codec == codecJSON:
		return json.Unmarshal(p.data, v)
	case p.codec == codecWire && ok:
		return w.DecodeWire(p.data)
	}
	return fmt.Errorf("rpc: cannot decode payload codec %d into %T", p.codec, v)
}
