package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"unicode/utf8"
)

// FuzzFrameRoundTrip throws arbitrary bytes at the length-prefixed frame
// codec — truncated headers, truncated bodies, oversized and lying length
// prefixes, corrupt JSON — and asserts the decoder never panics, never
// trusts the prefix over the bytes actually present, and stays a strict
// inverse of the encoder for everything the encoder can produce.
func FuzzFrameRoundTrip(f *testing.F) {
	frame := func(payload []byte) []byte {
		out := make([]byte, 4+len(payload))
		binary.BigEndian.PutUint32(out, uint32(len(payload)))
		copy(out[4:], payload)
		return out
	}
	f.Add(frame([]byte(`{"id":1,"method":"Cluster.Boot","params":{"nonce":"AAEC"}}`)))
	f.Add(frame(nil))                                    // empty body
	f.Add([]byte{})                                      // empty stream
	f.Add([]byte{0x00, 0x00})                            // truncated header
	f.Add([]byte{0x00, 0x00, 0x01, 0x00, 'a', 'b'})      // truncated body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})           // length above MaxFrame
	f.Add([]byte{0x04, 0x00, 0x00, 0x00})                // claims 64 MiB, delivers 0
	f.Add(append(frame([]byte(`{"id":2}`)), 0xde, 0xad)) // valid frame + trailing junk

	// The ring-fronting gateway's wire messages (routing, spill placement,
	// the enclave key hand-off), seeded so the corpus explores its frame
	// shapes: session addressing, optional key/shard/spilled fields,
	// byte-array report blobs and base64 key material inside JSON, batch
	// envelopes.
	f.Add(frame([]byte(`{"id":3,"method":"Cluster.Route","params":{"tenant":"tenant-7","key":"dataset-41"}}`)))
	f.Add(frame([]byte(`{"id":3,"result":{"shard":"gw2","addr":"127.0.0.1:7012","epoch":5}}`)))
	f.Add(frame([]byte(`{"id":4,"method":"Cluster.RunJob","params":{"kernel":"Conv","params":[4,4,1,0],"sealed_input":"3q2+7w==","tenant":"t","class":"critical","deadline_ms":1500,"key":"k"}}`)))
	f.Add(frame([]byte(`{"id":4,"result":{"sealed_output":"3q2+7w==","shard":"gw1","spilled":true}}`)))
	f.Add(frame([]byte(`{"id":5,"method":"Cluster.RunBatch","params":{"kernel":"Conv","jobs":[{"params":[1,2,3,4],"sealed_input":"AA=="},{"params":[0,0,0,0],"sealed_input":""}],"key":"k"}}`)))
	f.Add(frame([]byte(`{"id":5,"result":{"results":[{"sealed_output":"AA=="},{"error":"oversize"}],"shard":"gw0","spilled":true}}`)))
	f.Add(frame([]byte(`{"id":6,"method":"Cluster.Handoff","params":{"report":{"MRENCLAVE":[1,2,3],"Version":1,"Debug":false,"ReportData":[9,9],"MAC":"q83v"},"recipient_pub":"BAUG"}}`)))
	f.Add(frame([]byte(`{"id":6,"result":{"sender_pub":"AAEC","sealed":"AAECAwQFBgc="}}`)))

	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := readRawFrame(bytes.NewReader(data))
		if err == nil {
			// The decoder may only hand back bytes that were actually on the
			// stream — a lying length prefix must fail, not fabricate.
			if len(body) > len(data)-4 {
				t.Fatalf("decoded %d bytes from a %d-byte stream", len(body), len(data))
			}
			// Re-framing the decoded body must round-trip to identical bytes.
			reframed := make([]byte, 4+len(body))
			binary.BigEndian.PutUint32(reframed, uint32(len(body)))
			copy(reframed[4:], body)
			back, err := readRawFrame(bytes.NewReader(reframed))
			if err != nil {
				t.Fatalf("re-framed decode failed: %v", err)
			}
			if !bytes.Equal(body, back) {
				t.Fatal("re-framed body differs")
			}
		}

		// Encoder -> decoder round trip for a request carrying the fuzz
		// bytes as its method string (JSON coerces invalid UTF-8, so only
		// valid strings can compare equal).
		req := Request{ID: 7, Method: string(data)}
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, req); err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				return
			}
			t.Fatalf("writeFrame: %v", err)
		}
		var got Request
		if err := readFrame(bytes.NewReader(buf.Bytes()), &got); err != nil {
			t.Fatalf("readFrame of encoder output: %v", err)
		}
		if utf8.ValidString(req.Method) && got.Method != req.Method {
			t.Fatalf("method corrupted: %q -> %q", req.Method, got.Method)
		}
	})
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
		if _, err := readRawFrame(bytes.NewReader(stream)); !errors.Is(err, io.ErrUnexpectedEOF) {
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
	got, err := readRawFrame(io.MultiReader(bytes.NewReader(hdr), bytes.NewReader(big)))
	if err != nil {
		t.Fatalf("full max-size frame: %v", err)
	}
	if len(got) != MaxFrame {
		t.Fatalf("decoded %d bytes, want %d", len(got), MaxFrame)
	}
}

// TestFederationFrameBoundedAlloc pins the bounded-alloc property for the
// federation tier's frames specifically: a peer opening what looks like a
// legitimate Cluster.Handoff or RunJob request — a real JSON prefix with
// a max-size length claim — but delivering only the prefix must cost memory
// proportional to the delivered bytes. Hand-off grants and sealed job
// payloads are the frames an attacker would inflate, since gateways relay
// them between regions.
func TestFederationFrameBoundedAlloc(t *testing.T) {
	prefixes := [][]byte{
		[]byte(`{"id":6,"method":"Cluster.Handoff","params":{"report":{"MRENCLAVE":[`),
		[]byte(`{"id":4,"method":"Cluster.RunJob","params":{"key":"k","sealed_input":"`),
		[]byte(`{"id":5,"method":"Cluster.RunBatch","params":{"key":"k","jobs":[{"sealed_input":"`),
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, p := range prefixes {
		hdr := make([]byte, 4)
		binary.BigEndian.PutUint32(hdr, MaxFrame) // claims 64 MiB
		stream := append(hdr, p...)               // delivers a few dozen bytes
		for i := 0; i < 8; i++ {
			if _, err := readRawFrame(bytes.NewReader(stream)); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("truncated federation frame: err = %v, want unexpected EOF", err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20 {
		t.Fatalf("truncated federation frames allocated %d bytes — decoder trusts the length prefix", grew)
	}
}
