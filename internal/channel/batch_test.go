package channel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

func testTxns(n int) []RegTxn {
	txns := make([]RegTxn, n)
	for i := range txns {
		txns[i] = RegTxn{Write: i%2 == 0, Addr: uint32(i), Data: uint64(i) * 7}
	}
	return txns
}

func testResults(n int) []RegResult {
	res := make([]RegResult, n)
	for i := range res {
		res[i] = RegResult{OK: i%3 != 0, Data: uint64(i) * 13}
	}
	return res
}

func newTestSealer(t *testing.T, key []byte) *Sealer {
	t.Helper()
	s, err := NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBatchRequestRoundTrip(t *testing.T) {
	key := key16()
	txns := testTxns(37)
	host := newTestSealer(t, key)
	dev := newTestSealer(t, key)
	frame, err := host.SealRegBatchRequest(9, txns)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dev.OpenRegBatchRequest(9, frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(txns) {
		t.Fatalf("got %d txns, want %d", len(got), len(txns))
	}
	for i := range txns {
		if got[i] != txns[i] {
			t.Fatalf("txn %d: got %+v, want %+v", i, got[i], txns[i])
		}
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	key := key16()
	res := testResults(21)
	dev := newTestSealer(t, key)
	host := newTestSealer(t, key)
	frame, err := dev.SealRegBatchResponse(4, res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := host.OpenRegBatchResponse(4, frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(res) {
		t.Fatalf("got %d results, want %d", len(got), len(res))
	}
	for i := range res {
		if got[i] != res[i] {
			t.Fatalf("result %d: got %+v, want %+v", i, got[i], res[i])
		}
	}
}

// TestBatchOneShotInterop pins that the package-level wrappers and the
// pooled Sealer produce and accept each other's frames.
func TestBatchOneShotInterop(t *testing.T) {
	key := key16()
	txns := testTxns(5)
	s := newTestSealer(t, key)

	fromSealer, err := s.SealRegBatchRequest(1, txns)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRegBatchRequest(key, 1, fromSealer); err != nil {
		t.Fatalf("one-shot open of sealer frame: %v", err)
	}
	fromOneShot, err := SealRegBatchRequest(key, 2, txns)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenRegBatchRequest(2, fromOneShot, nil); err != nil {
		t.Fatalf("sealer open of one-shot frame: %v", err)
	}

	resFrame, err := SealRegBatchResponse(key, 3, testResults(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenRegBatchResponse(3, resFrame, nil); err != nil {
		t.Fatalf("sealer open of one-shot response: %v", err)
	}
}

// TestBatchRejectsReplay: a frame sealed at counter N must not open at any
// other expected counter — replaying yesterday's batch is the classic
// attack the strictly increasing Ctr_session exists to stop.
func TestBatchRejectsReplay(t *testing.T) {
	key := key16()
	frame, err := SealRegBatchRequest(key, 5, testTxns(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRegBatchRequest(key, 6, frame); !errors.Is(err, ErrReplay) {
		t.Fatalf("stale counter: got %v, want ErrReplay", err)
	}
	if _, err := OpenRegBatchRequest(key, 4, frame); !errors.Is(err, ErrReplay) {
		t.Fatalf("future counter: got %v, want ErrReplay", err)
	}
}

// TestBatchRejectsTamper flips one ciphertext byte: the whole-frame MAC
// must fail.
func TestBatchRejectsTamper(t *testing.T) {
	key := key16()
	frame, err := SealRegBatchRequest(key, 1, testTxns(8))
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), frame...)
	tampered[len(tampered)/2] ^= 0x01
	if _, err := OpenRegBatchRequest(key, 1, tampered); !errors.Is(err, ErrMAC) {
		t.Fatalf("got %v, want ErrMAC", err)
	}
}

// TestBatchRejectsSwappedTxnOrder: the MAC covers the transaction vector's
// ordering, so swapping two encrypted 13-byte records inside the frame —
// reordering the register program without touching any record's bytes —
// must be detected. This is the property a per-txn MAC would NOT give.
func TestBatchRejectsSwappedTxnOrder(t *testing.T) {
	key := key16()
	frame, err := SealRegBatchRequest(key, 1, testTxns(4))
	if err != nil {
		t.Fatal(err)
	}
	swapped := append([]byte(nil), frame...)
	// Layout: tag(1) ‖ ctr(8) ‖ count(2) ‖ txn records ‖ MAC(8).
	base := 1 + 8 + batchHdrSize
	for i := 0; i < regTxnSize; i++ {
		a, b := base+i, base+regTxnSize+i
		swapped[a], swapped[b] = swapped[b], swapped[a]
	}
	if _, err := OpenRegBatchRequest(key, 1, swapped); !errors.Is(err, ErrMAC) {
		t.Fatalf("got %v, want ErrMAC", err)
	}
}

// TestBatchRejectsTruncatedVector: a count field claiming more (or fewer)
// records than the payload carries is refused even when the MAC is valid —
// i.e. when the sealing end itself miscounted.
func TestBatchRejectsTruncatedVector(t *testing.T) {
	key := key16()
	s := newTestSealer(t, key)
	// Forge a validly MAC'd frame whose count says 3 but which carries 2
	// records, using the internal seal primitive directly.
	payloadLen := batchHdrSize + 2*regTxnSize
	buf := binary.BigEndian.AppendUint16(s.begin(MsgSecureRegBatch, 7, payloadLen), 3)
	for _, txn := range testTxns(2) {
		buf = appendRegTxn(buf, txn)
	}
	frame := s.finish(dirRequest, 7, buf)
	if _, err := OpenRegBatchRequest(key, 7, frame); !errors.Is(err, ErrMalformed) {
		t.Fatalf("got %v, want ErrMalformed", err)
	}
	// Same for a zero count and an oversize count.
	for _, count := range []uint16{0, MaxBatchTxns + 1} {
		buf := binary.BigEndian.AppendUint16(s.begin(MsgSecureRegBatch, 8, batchHdrSize), count)
		frame := s.finish(dirRequest, 8, buf)
		if _, err := OpenRegBatchRequest(key, 8, frame); !errors.Is(err, ErrMalformed) {
			t.Fatalf("count %d: got %v, want ErrMalformed", count, err)
		}
	}
}

// TestBatchDirectionSeparation: a request frame must not open as a
// response (and vice versa), even at the right counter under the right key.
func TestBatchDirectionSeparation(t *testing.T) {
	key := key16()
	req, err := SealRegBatchRequest(key, 1, testTxns(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRegBatchResponse(key, 1, req); err == nil {
		t.Fatal("request frame opened as a response")
	}
	resp, err := SealRegBatchResponse(key, 1, testResults(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRegBatchRequest(key, 1, resp); err == nil {
		t.Fatal("response frame opened as a request")
	}
}

func TestBatchSealSizeLimits(t *testing.T) {
	key := key16()
	s := newTestSealer(t, key)
	if _, err := s.SealRegBatchRequest(1, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("empty batch: got %v, want ErrMalformed", err)
	}
	if _, err := s.SealRegBatchRequest(1, testTxns(MaxBatchTxns+1)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversize batch: got %v, want ErrMalformed", err)
	}
	if _, err := s.SealRegBatchResponse(1, testResults(MaxBatchTxns+1)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversize response: got %v, want ErrMalformed", err)
	}
	// The largest legal batch must round-trip.
	frame, err := s.SealRegBatchRequest(2, testTxns(MaxBatchTxns))
	if err != nil {
		t.Fatal(err)
	}
	got, err := newTestSealer(t, key).OpenRegBatchRequest(2, frame, nil)
	if err != nil || len(got) != MaxBatchTxns {
		t.Fatalf("max batch round trip: %d txns, err %v", len(got), err)
	}
}

// TestBatchWrongKey: frames under one session key are garbage under
// another.
func TestBatchWrongKey(t *testing.T) {
	frame, err := SealRegBatchRequest(key16(), 1, testTxns(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRegBatchRequest(key16(), 1, frame); !errors.Is(err, ErrMAC) {
		t.Fatalf("got %v, want ErrMAC", err)
	}
}

// TestBatchSealerOpenDoesNotMutateFrame pins the aliasing contract: Open
// decrypts into the Sealer's own buffer, leaving the caller's frame intact
// (the core runtime reuses response frames across reads).
func TestBatchSealerOpenDoesNotMutateFrame(t *testing.T) {
	key := key16()
	s := newTestSealer(t, key)
	frame, err := SealRegBatchRequest(key, 1, testTxns(4))
	if err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), frame...)
	if _, err := s.OpenRegBatchRequest(1, frame, nil); err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		if frame[i] != before[i] {
			t.Fatalf("Open mutated the caller's frame at byte %d", i)
		}
	}
}

// TestBatchSealOpenZeroAllocs is the pooled-path allocation budget: once a
// Sealer and destination slices are warm, sealing and opening a batch in
// both directions allocates nothing. The CI gate (make bench-sched-gate) holds
// the same line via BenchmarkBatchSealOpen.
func TestBatchSealOpenZeroAllocs(t *testing.T) {
	key := key16()
	host := newTestSealer(t, key)
	dev := newTestSealer(t, key)
	txns := testTxns(64)
	res := testResults(64)
	txnScratch := make([]RegTxn, 0, 64)
	resScratch := make([]RegResult, 0, 64)
	var ctr uint64
	allocs := testing.AllocsPerRun(200, func() {
		frame, err := host.SealRegBatchRequest(ctr, txns)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dev.OpenRegBatchRequest(ctr, frame, txnScratch); err != nil {
			t.Fatal(err)
		}
		frame, err = dev.SealRegBatchResponse(ctr, res)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := host.OpenRegBatchResponse(ctr, frame, resScratch); err != nil {
			t.Fatal(err)
		}
		ctr++
	})
	if allocs != 0 {
		t.Fatalf("pooled seal/open path allocates %.1f/op, want 0", allocs)
	}

	// The single-frame and rekey forms share the pooled path: a warm
	// register round trip and a warm rotation round trip allocate nothing.
	newKey := key16()
	single := func() {
		frame, err := host.SealRegRequest(ctr, txns[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dev.OpenRegRequest(ctr, frame); err != nil {
			t.Fatal(err)
		}
		frame, err = dev.SealRegResponse(ctr, res[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := host.OpenRegResponse(ctr, frame); err != nil {
			t.Fatal(err)
		}
		frame, err = host.SealRekeyRequest(ctr, newKey, ctr+1)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := dev.OpenRekeyRequest(ctr, frame); err != nil {
			t.Fatal(err)
		}
		frame, err = dev.SealRekeyResponse(ctr)
		if err != nil {
			t.Fatal(err)
		}
		if err := host.OpenRekeyResponse(ctr, frame); err != nil {
			t.Fatal(err)
		}
		ctr++
	}
	if allocs := testing.AllocsPerRun(200, single); allocs != 0 {
		t.Fatalf("pooled single-frame and rekey round trip allocates %.1f/op, want 0", allocs)
	}
}

// TestSealerSingleFramesAreGolden: one Sealer, reused across every vector,
// frames them byte for byte as the golden file (and the one-shot functions)
// do.
func TestSealerSingleFramesAreGolden(t *testing.T) {
	s := newTestSealer(t, goldenKey)
	checkGoldenFrames(t, singleFramer{
		sealReq:    s.SealRegRequest,
		openReq:    s.OpenRegRequest,
		sealResp:   s.SealRegResponse,
		openResp:   s.OpenRegResponse,
		sealRekey:  s.SealRekeyRequest,
		openRekey:  s.OpenRekeyRequest,
		sealRekeyR: s.SealRekeyResponse,
		openRekeyR: s.OpenRekeyResponse,
	})
}

// TestAttestEncodeRejectsOversizeDNA is the regression test for the silent
// uint16 truncation: before the fix, a DNA longer than 65535 bytes encoded
// with a wrapped length prefix and decoded as a different string with a
// valid-looking MAC slot.
func TestAttestEncodeRejectsOversizeDNA(t *testing.T) {
	long := strings.Repeat("x", 1<<16)
	if _, err := (AttestRequest{Nonce: 1, DNA: long}).Encode(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("AttestRequest: got %v, want ErrMalformed", err)
	}
	if _, err := (AttestResponse{Value: 1, DNA: long}).Encode(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("AttestResponse: got %v, want ErrMalformed", err)
	}
	// The boundary case still encodes.
	exact := strings.Repeat("y", 1<<16-1)
	enc, err := (AttestRequest{Nonce: 1, DNA: exact}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeAttestRequest(enc)
	if err != nil || dec.DNA != exact {
		t.Fatalf("boundary DNA round trip failed: %v", err)
	}
}

// TestEncodeErrorClampsOversizeMessage: the error path must always produce
// a decodable frame, so oversize messages clamp instead of failing.
func TestEncodeErrorClampsOversizeMessage(t *testing.T) {
	long := strings.Repeat("e", 1<<16+100)
	frame := EncodeError(long)
	msg, ok := DecodeError(frame)
	if !ok {
		t.Fatal("clamped error frame did not decode")
	}
	if len(msg) != 1<<16-1 || msg != long[:1<<16-1] {
		t.Fatalf("clamped message wrong: %d bytes", len(msg))
	}
}

// TestRekeyLeavesNoOldEpoch: Rekey keeps the Sealer's buffers but nothing of
// the old epoch in them — the key bytes hold the new key, both frame
// buffers are zero at their old capacity (the open buffer held the rekey
// request's plaintext, the new key), and frames sealed afterwards open
// under the new key only.
func TestRekeyLeavesNoOldEpoch(t *testing.T) {
	oldKey, newKey := key16(), key16()
	host, dev := newTestSealer(t, oldKey), newTestSealer(t, oldKey)
	frame, err := host.SealRegBatchRequest(1, testTxns(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.OpenRegBatchRequest(1, frame, nil); err != nil {
		t.Fatal(err)
	}
	frame, err = host.SealRekeyRequest(2, newKey, 100)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := dev.OpenRekeyRequest(2, frame)
	if err != nil {
		t.Fatal(err)
	}
	keyBuf, sealBuf, openBuf := dev.key, dev.sealBuf[:cap(dev.sealBuf)], dev.openBuf[:cap(dev.openBuf)]
	if err := dev.Rekey(got); err != nil { // got aliases the open buffer
		t.Fatal(err)
	}
	if !bytes.Equal(dev.key, newKey) || &dev.key[0] != &keyBuf[0] {
		t.Error("Rekey did not copy the new key over the old key's bytes")
	}
	for name, b := range map[string][]byte{"seal": sealBuf, "open": openBuf} {
		if !bytes.Equal(b, make([]byte, len(b))) {
			t.Errorf("the %s buffer keeps old-epoch bytes after Rekey", name)
		}
	}
	if cap(dev.sealBuf) != len(sealBuf) || cap(dev.openBuf) != len(openBuf) {
		t.Error("Rekey dropped a frame buffer's capacity")
	}
	frame, err = dev.SealRegResponse(100, RegResult{Data: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRegResponse(newKey, 100, frame); err != nil {
		t.Errorf("frame after Rekey does not open under the new key: %v", err)
	}
	if _, err := OpenRegResponse(oldKey, 100, frame); err == nil {
		t.Error("frame after Rekey opens under the old key")
	}
}

// TestRekeyDefersTheKeySchedule: Rekey refuses a key AES cannot take, and
// otherwise leaves the new epoch's block unexpanded, so an epoch that seals
// nothing costs no key schedule; the first seal of the epoch expands it.
func TestRekeyDefersTheKeySchedule(t *testing.T) {
	s := newTestSealer(t, key16())
	if err := s.Rekey(make([]byte, 15)); err == nil {
		t.Fatal("Rekey accepted a 15-byte key")
	}
	newKey := key16()
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.Rekey(newKey); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || s.block != nil {
		t.Fatalf("Rekey makes %.0f allocations and leaves block %v, want 0 and nil", allocs, s.block)
	}
	frame, err := s.SealRegResponse(1, RegResult{Data: 7})
	if err != nil {
		t.Fatal(err)
	}
	if s.block == nil {
		t.Fatal("the epoch's first seal did not expand its block")
	}
	if _, err := OpenRegResponse(newKey, 1, frame); err != nil {
		t.Fatalf("first frame of the epoch does not open under its key: %v", err)
	}
}
