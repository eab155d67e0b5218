package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"salus/internal/bufpool"
)

// blobBatch mirrors the gateway's batch messages: a count, then per element
// fixed fields, a short string and a raw section.
type blobBatch struct {
	Items []blobItem
}

type blobItem struct {
	Tag  uint64
	Note string
	Data []byte
}

func (b blobBatch) EncodeWire(e *Encoder) {
	e.Uint32(uint32(len(b.Items)))
	for _, it := range b.Items {
		e.Uint64(it.Tag)
		e.String(it.Note)
		e.Section(it.Data)
	}
}

func (b *blobBatch) DecodeWire(body []byte) error {
	d := NewDecoder(body)
	b.Items = make([]blobItem, d.Count(8+2+4))
	for i := range b.Items {
		b.Items[i] = blobItem{d.Uint64(), d.String(), d.Section()}
	}
	return d.Done()
}

// wireBytes is the stream encodeFrame and writeTo put on the wire.
func wireBytes(t testing.TB, kind byte, id uint64, method string, v any) []byte {
	t.Helper()
	e, err := encodeFrame(kind, id, method, v)
	if err != nil {
		t.Fatal(err)
	}
	defer e.release()
	var buf bytes.Buffer
	if n, err := e.writeTo(&buf); err != nil || n != buf.Len() {
		t.Fatalf("writeTo reported %d bytes, %v; wrote %d", n, err, buf.Len())
	}
	return buf.Bytes()
}

func readStream(data []byte) ([]byte, error) {
	body, _, err := readFrame(bufio.NewReader(bytes.NewReader(data)), false)
	return body, err
}

// FuzzFrameRoundTrip throws arbitrary bytes at the frame reader, the envelope
// parser and both payload codecs — truncated headers and bodies, oversized
// and lying length prefixes, section lengths past the body end, corrupt JSON
// — and asserts they never panic, never trust a length over the bytes
// actually present, and stay a strict inverse of the encoder for everything
// the encoder can produce.
func FuzzFrameRoundTrip(f *testing.F) {
	job := blob{Tag: 4, Data: []byte{0xde, 0xad, 0xbe, 0xef}}
	batch := blobBatch{Items: []blobItem{{1, "", []byte{0}}, {2, "oversize", nil}}}
	seeds := [][]byte{
		wireBytes(f, kindRequest, 4, "Cluster.RunJob", job),
		wireBytes(f, kindResult, 4, "", job),
		wireBytes(f, kindRequest, 5, "Cluster.RunBatch", batch),
		wireBytes(f, kindResult, 5, "", batch),
		wireBytes(f, kindError, 5, "", "sched: overloaded"),
		wireBytes(f, kindRequest, 1, "Cluster.Boot", map[string]string{"nonce": "AAEC"}),
		wireBytes(f, kindRequest, 3, "Cluster.Route", map[string]string{"tenant": "tenant-7", "key": "dataset-41"}),
		wireBytes(f, kindResult, 3, "", map[string]any{"shard": "gw2", "addr": "127.0.0.1:7012", "epoch": 5}),
		wireBytes(f, kindRequest, 2, "Cluster.Stats", nil),
		{},                                 // empty stream
		{0x00, 0x00},                       // truncated length prefix
		{0x00, 0x00, 0x00, 0x00},           // empty body: no envelope at all
		{0x00, 0x00, 0x00, 0x05, 1},        // truncated envelope header
		{0x00, 0x00, 0x01, 0x00, 'a', 'b'}, // truncated body
		{0xff, 0xff, 0xff, 0xff, 'x'},      // length far above MaxFrame
		{0x04, 0x00, 0x00, 0x00},           // claims 64 MiB, delivers 0
		binary.BigEndian.AppendUint32(nil, MaxFrame+1),
		append(wireBytes(f, kindResult, 2, "", nil), 0xde, 0xad), // valid frame + trailing junk
	}
	// A section that claims one byte more than its frame holds, and one whose
	// claimed end lies far past the body.
	for _, claim := range []uint32{5, 1 << 30} {
		lying := wireBytes(f, kindRequest, 6, "Cluster.RunJob", job)
		binary.BigEndian.PutUint32(lying[len(lying)-8:], claim)
		seeds = append(seeds, lying)
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := readStream(data)
		if err == nil {
			// The reader may only hand back bytes that were actually on the
			// stream — a lying length prefix must fail, not fabricate.
			if len(body) > len(data)-4 {
				t.Fatalf("decoded %d bytes from a %d-byte stream", len(body), len(data))
			}
			if fr, err := parseFrame(body); err == nil {
				// Whatever the payload claims, decoding it stays inside it.
				var (
					one  blob
					many blobBatch
					doc  any
				)
				if fr.payload.Decode(&one) == nil && len(one.Data) > len(fr.payload.data) {
					t.Fatal("decoded section longer than its payload")
				}
				if fr.payload.Decode(&many) == nil && len(many.Items)*(8+2+4) > len(fr.payload.data) {
					t.Fatalf("%d items from a %d-byte payload", len(many.Items), len(fr.payload.data))
				}
				_ = fr.payload.Decode(&doc)
			}
		}

		// Encoder -> reader -> parser -> decoder round trip, with the fuzz
		// bytes as method name and as the raw section.
		method := string(data[:min(len(data), 255)])
		want := blobBatch{Items: []blobItem{{uint64(len(data)), method, data}, {Note: "empty"}}}
		got, err := parseFrame(mustRead(t, wireBytes(t, kindRequest, 7, method, want)))
		if err != nil || got.kind != kindRequest || got.id != 7 || string(got.method) != method {
			t.Fatalf("envelope corrupted: %+v, %v", got, err)
		}
		var back blobBatch
		if err := got.payload.Decode(&back); err != nil {
			t.Fatalf("decode of encoder output: %v", err)
		}
		if len(back.Items) != 2 || back.Items[0].Tag != uint64(len(data)) || back.Items[0].Note != method ||
			!bytes.Equal(back.Items[0].Data, data) || back.Items[1].Note != "empty" || back.Items[1].Data != nil {
			t.Fatalf("payload corrupted: %+v", back)
		}
	})
}

func mustRead(t *testing.T, stream []byte) []byte {
	t.Helper()
	body, err := readStream(stream)
	if err != nil {
		t.Fatalf("readFrame of encoder output: %v", err)
	}
	return body
}

// TestReadRawFrameBoundedAlloc pins the fix for the hostile-length-prefix
// allocation: a peer claiming a maximum-size frame but delivering almost
// nothing must cost memory proportional to the bytes received, not the 64
// MiB promised.
func TestReadRawFrameBoundedAlloc(t *testing.T) {
	payload := make([]byte, 1024)
	hdr := make([]byte, 4)
	binary.BigEndian.PutUint32(hdr, MaxFrame) // claims 64 MiB
	stream := append(hdr, payload...)         // delivers 1 KiB

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 8; i++ {
		if _, err := readStream(stream); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncated max-size frame: err = %v, want unexpected EOF", err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20 {
		t.Fatalf("8 truncated reads allocated %d bytes — decoder trusts the length prefix", grew)
	}

	// A frame right at the limit still works when the bytes really arrive.
	big := make([]byte, MaxFrame)
	binary.BigEndian.PutUint32(hdr, MaxFrame)
	got, _, err := readFrame(bufio.NewReader(io.MultiReader(bytes.NewReader(hdr), bytes.NewReader(big))), true)
	if err != nil {
		t.Fatalf("full max-size frame: %v", err)
	}
	if len(got) != MaxFrame {
		t.Fatalf("decoded %d bytes, want %d", len(got), MaxFrame)
	}
}

// TestFederationFrameBoundedAlloc pins the bounded-alloc property for the
// frames an attacker would inflate, since gateways relay them between
// regions: a peer opening what looks like a legitimate Cluster.Handoff,
// RunJob or RunBatch request — a real envelope and the start of a real
// payload under a max-size length claim, each section claiming the rest —
// but delivering only that prefix must cost memory proportional to the
// delivered bytes.
func TestFederationFrameBoundedAlloc(t *testing.T) {
	handoff := wireBytes(t, kindRequest, 6, "Cluster.Handoff", map[string]any{"report": map[string]any{"MRENCLAVE": []int{1, 2, 3}}})
	job := wireBytes(t, kindRequest, 4, "Cluster.RunJob", blob{Tag: 4})
	batch := wireBytes(t, kindRequest, 5, "Cluster.RunBatch", blobBatch{Items: []blobItem{{Tag: 1, Note: "k"}}})
	for _, p := range [][]byte{job, batch} {
		binary.BigEndian.PutUint32(p[len(p)-4:], MaxFrame-64) // the sealed section claims the rest
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, p := range [][]byte{handoff[:len(handoff)-8], job, batch} {
		binary.BigEndian.PutUint32(p, MaxFrame) // claims 64 MiB, delivers a few dozen bytes
		for i := 0; i < 8; i++ {
			if _, err := readStream(p); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("truncated federation frame: err = %v, want unexpected EOF", err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20 {
		t.Fatalf("truncated federation frames allocated %d bytes — decoder trusts the length prefix", grew)
	}
}

// spyReader serves a stream, then fails, and records the largest buffer the
// frame reader offered it. bufio.Reader hands a read at least as large as
// its own buffer, made while that buffer is empty, straight to the reader
// underneath; every byte served before it is then already in the body, so
// the bytes served so far plus the capacity offered is the capacity of the
// buffer the body is being read into.
type spyReader struct {
	data   []byte
	served int
	widest int
}

func (r *spyReader) Read(p []byte) (int, error) {
	r.widest = max(r.widest, r.served-4+cap(p))
	if r.served == len(r.data) {
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, r.data[r.served:])
	r.served += n
	return n, nil
}

// TestPooledFrameClasses: with every class a MiB body passes through warm,
// the server's pooled read path keeps the promises of the exact-size one it
// replaced. A truncated frame under a hostile length never reads into a
// class wider than frameGrowth times the bytes delivered (one chunk is taken
// on trust), a MiB body is sliced with cap == len so no stale pooled byte
// past it is reachable, and a released large buffer reads 0xA5.
func TestPooledFrameClasses(t *testing.T) {
	if bufpool.MinSize<<(bufpool.Classes-1) != MaxFrame {
		t.Fatalf("the largest class is %d bytes, MaxFrame %d", bufpool.MinSize<<(bufpool.Classes-1), MaxFrame)
	}
	stream := func(claim, deliver int) []byte {
		s := binary.BigEndian.AppendUint32(nil, uint32(claim))
		for i := 0; i < deliver; i++ {
			s = append(s, byte(i*7))
		}
		return s
	}
	const mib = 1<<20 + 64 // a MiB job's sealed input and its envelope
	for _, n := range []int{mib, mib, 4 << 20} {
		_, buf, err := readFrame(bufio.NewReader(bytes.NewReader(stream(n, n))), true)
		if err != nil {
			t.Fatal(err)
		}
		bufpool.Put(buf)
	}

	for _, delivered := range []int{1 << 10, frameChunk + 1, 300 << 10, 2<<20 + 1} {
		spy := &spyReader{data: stream(MaxFrame, delivered)}
		if _, _, err := readFrame(bufio.NewReader(spy), true); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d of %d bytes: err = %v, want unexpected EOF", delivered, MaxFrame, err)
		}
		if bound := max(frameChunk, frameGrowth*delivered); spy.widest > bound {
			t.Errorf("%d bytes delivered under a %d-byte claim took a %d-byte buffer, bound %d", delivered, MaxFrame, spy.widest, bound)
		}
	}

	want := stream(mib, mib)[4:]
	body, buf, err := readFrame(bufio.NewReader(bytes.NewReader(stream(mib, mib))), true)
	switch {
	case err != nil:
		t.Fatal(err)
	case buf == nil:
		t.Fatal("a MiB body was not read into a pooled buffer")
	case !bytes.Equal(body, want):
		t.Fatal("a MiB body read into a warm pooled buffer arrived corrupted")
	case cap(body) != len(body):
		t.Fatalf("a MiB body has cap %d, len %d: stale pooled bytes are reachable", cap(body), len(body))
	}
	whole := buf[:cap(buf)]
	bufpool.Put(buf)
	if !bytes.Equal(whole, bytes.Repeat([]byte{0xA5}, len(whole))) {
		t.Error("a released large buffer still holds its frame's bytes")
	}
}
