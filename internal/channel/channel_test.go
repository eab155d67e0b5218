package channel

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"salus/internal/cryptoutil"
)

func key16() []byte { return cryptoutil.RandomKey(16) }

// mustBytes unwraps the two-valued encoders for inputs known to be within
// wire limits.
func mustBytes(t testing.TB, b []byte, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAttestRequestRoundTrip(t *testing.T) {
	key := key16()
	req := AttestRequest{Nonce: 0xDEADBEEF, DNA: "A58275817"}
	req.MAC = AttestMACReq(key, req.Nonce, req.DNA)
	reqEnc, encErr := req.Encode()
	got, err := DecodeAttestRequest(mustBytes(t, reqEnc, encErr))
	if err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Errorf("round trip = %+v, want %+v", got, req)
	}
	if AttestMACReq(key, got.Nonce, got.DNA) != got.MAC {
		t.Error("MAC does not verify after round trip")
	}
}

func TestAttestResponseRoundTrip(t *testing.T) {
	key := key16()
	resp := AttestResponse{Value: 101, DNA: "A58293108"}
	resp.MAC = AttestMACResp(key, resp.Value, resp.DNA)
	respEnc, encErr := resp.Encode()
	got, err := DecodeAttestResponse(mustBytes(t, respEnc, encErr))
	if err != nil {
		t.Fatal(err)
	}
	if got != resp {
		t.Errorf("round trip = %+v", got)
	}
}

func TestAttestMACDomainSeparation(t *testing.T) {
	key := key16()
	if AttestMACReq(key, 5, "d") == AttestMACResp(key, 5, "d") {
		t.Error("request and response MACs collide for same inputs")
	}
}

func TestAttestMACBindsDNA(t *testing.T) {
	key := key16()
	if AttestMACReq(key, 5, "deviceA") == AttestMACReq(key, 5, "deviceB") {
		t.Error("MAC does not bind the DNA")
	}
}

func TestDecodeAttestRejectsMalformed(t *testing.T) {
	req := AttestRequest{Nonce: 1, DNA: "d", MAC: 2}
	reqEnc, encErr := req.Encode()
	enc := mustBytes(t, reqEnc, encErr)
	if _, err := DecodeAttestRequest(enc[:len(enc)-1]); err == nil {
		t.Error("accepted truncated request")
	}
	if _, err := DecodeAttestRequest([]byte{MsgAttestResp, 0}); err == nil {
		t.Error("accepted wrong type tag")
	}
	if _, err := DecodeAttestResponse(nil); err == nil {
		t.Error("accepted empty frame")
	}
}

func TestSecureRegRoundTrip(t *testing.T) {
	key := key16()
	txn := RegTxn{Write: true, Addr: 0x10, Data: 0xABCDEF}
	frame, err := SealRegRequest(key, 7, txn)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenRegRequest(key, 7, frame)
	if err != nil {
		t.Fatal(err)
	}
	if got != txn {
		t.Errorf("round trip = %+v", got)
	}
}

func TestSecureRegResponseRoundTrip(t *testing.T) {
	key := key16()
	res := RegResult{Data: 42, OK: true}
	frame, err := SealRegResponse(key, 7, res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenRegResponse(key, 7, frame)
	if err != nil {
		t.Fatal(err)
	}
	if got != res {
		t.Errorf("round trip = %+v", got)
	}
}

func TestSecureRegConfidentiality(t *testing.T) {
	key := key16()
	txn := RegTxn{Write: true, Addr: 0x10, Data: 0x1122334455667788}
	frame, err := SealRegRequest(key, 1, txn)
	if err != nil {
		t.Fatal(err)
	}
	var plain [8]byte
	for i := range plain {
		plain[i] = byte(txn.Data >> (56 - 8*uint(i)))
	}
	if bytes.Contains(frame, plain[:]) {
		t.Error("register data visible in the secure frame")
	}
}

func TestSecureRegRejectsTamper(t *testing.T) {
	key := key16()
	frame, err := SealRegRequest(key, 3, RegTxn{Write: true, Addr: 1, Data: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(frame); i++ {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x80
		if _, err := OpenRegRequest(key, 3, bad); err == nil {
			t.Fatalf("accepted frame with byte %d flipped", i)
		}
	}
}

func TestSecureRegRejectsReplay(t *testing.T) {
	key := key16()
	frame, err := SealRegRequest(key, 3, RegTxn{Addr: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Receiver has moved on to counter 4; the replayed counter-3 frame
	// must be rejected.
	if _, err := OpenRegRequest(key, 4, frame); !errors.Is(err, ErrReplay) {
		t.Errorf("err = %v, want ErrReplay", err)
	}
}

func TestSecureRegDirectionSeparation(t *testing.T) {
	key := key16()
	// A request reflected back must not parse as a response.
	frame, err := SealRegRequest(key, 5, RegTxn{Write: true, Addr: 1, Data: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRegResponse(key, 5, frame); err == nil {
		t.Error("request frame accepted as response")
	}
}

func TestSecureRegWrongKey(t *testing.T) {
	frame, err := SealRegRequest(key16(), 0, RegTxn{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRegRequest(key16(), 0, frame); !errors.Is(err, ErrMAC) {
		t.Errorf("err = %v, want ErrMAC", err)
	}
}

func TestDirectRegRoundTrip(t *testing.T) {
	txn := RegTxn{Write: false, Addr: 0x20}
	got, err := DecodeDirectReg(EncodeDirectReg(txn))
	if err != nil || got != txn {
		t.Errorf("got %+v err %v", got, err)
	}
	res := RegResult{Data: 9, OK: true}
	gotRes, err := DecodeDirectResp(AppendDirectResp(nil, res))
	if err != nil || gotRes != res {
		t.Errorf("got %+v err %v", gotRes, err)
	}
}

func TestMemMessages(t *testing.T) {
	w := MemWrite{Addr: 0x1000, Data: []byte("ciphertext feature map")}
	wEnc, encErr := EncodeMemWrite(w)
	got, err := DecodeMemWrite(mustBytes(t, wEnc, encErr))
	if err != nil || got.Addr != w.Addr || !bytes.Equal(got.Data, w.Data) {
		t.Errorf("MemWrite round trip: %+v, %v", got, err)
	}
	r := MemRead{Addr: 0x2000, N: 64}
	gotR, err := DecodeMemRead(EncodeMemRead(r))
	if err != nil || gotR != r {
		t.Errorf("MemRead round trip: %+v, %v", gotR, err)
	}
	dEnc, dFill := AppendMemData(nil, 3)
	copy(dFill, []byte{1, 2, 3})
	data, err := DecodeMemData(dEnc)
	if err != nil || !bytes.Equal(data, []byte{1, 2, 3}) {
		t.Errorf("MemData round trip: %v, %v", data, err)
	}
}

func TestMemRejectsLengthMismatch(t *testing.T) {
	mEnc, mErr := EncodeMemWrite(MemWrite{Addr: 1, Data: []byte{1, 2, 3}})
	enc := mustBytes(t, mEnc, mErr)
	if _, err := DecodeMemWrite(enc[:len(enc)-1]); err == nil {
		t.Error("accepted truncated MemWrite")
	}
	encD, _ := AppendMemData(nil, 4)
	if _, err := DecodeMemData(append(encD, 0xFF)); err == nil {
		t.Error("accepted over-long MemData")
	}
}

func TestErrorFrames(t *testing.T) {
	msg, ok := DecodeError(EncodeError("no such register"))
	if !ok || msg != "no such register" {
		t.Errorf("DecodeError = %q, %v", msg, ok)
	}
	if _, ok := DecodeError([]byte{MsgMemData}); ok {
		t.Error("non-error frame decoded as error")
	}
	if MsgType(EncodeError("x")) != MsgError {
		t.Error("MsgType wrong")
	}
	if MsgType(nil) != 0 {
		t.Error("MsgType(nil) != 0")
	}
}

func TestPropertySecureRegRoundTrip(t *testing.T) {
	key := key16()
	f := func(write bool, addr uint32, data, ctr uint64) bool {
		txn := RegTxn{Write: write, Addr: addr, Data: data}
		frame, err := SealRegRequest(key, ctr, txn)
		if err != nil {
			return false
		}
		got, err := OpenRegRequest(key, ctr, frame)
		return err == nil && got == txn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyDecodersNeverPanic(t *testing.T) {
	f := func(raw []byte) bool {
		DecodeAttestRequest(raw)
		DecodeAttestResponse(raw)
		DecodeDirectReg(raw)
		DecodeDirectResp(raw)
		DecodeMemWrite(raw)
		DecodeMemRead(raw)
		DecodeMemData(raw)
		DecodeError(raw)
		OpenRegRequest(make([]byte, 16), 0, raw)
		OpenRegResponse(make([]byte, 16), 0, raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSecureRegSealOpen(b *testing.B) {
	key := key16()
	txn := RegTxn{Write: true, Addr: 4, Data: 99}
	for i := 0; i < b.N; i++ {
		frame, err := SealRegRequest(key, uint64(i), txn)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := OpenRegRequest(key, uint64(i), frame); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRekeyRoundTrip(t *testing.T) {
	old := key16()
	newKey := key16()
	frame, err := SealRekeyRequest(old, 9, newKey, 1000)
	if err != nil {
		t.Fatal(err)
	}
	gotKey, gotCtr, err := OpenRekeyRequest(old, 9, frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotKey, newKey) || gotCtr != 1000 {
		t.Errorf("rekey payload = %x/%d", gotKey, gotCtr)
	}
	ack, err := SealRekeyResponse(old, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := OpenRekeyResponse(old, 9, ack); err != nil {
		t.Error(err)
	}
}

func TestRekeyConfidentialityAndIntegrity(t *testing.T) {
	old := key16()
	newKey := key16()
	frame, err := SealRekeyRequest(old, 0, newKey, 5)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(frame, newKey) {
		t.Error("new session key visible on the bus")
	}
	bad := append([]byte(nil), frame...)
	bad[12] ^= 1
	if _, _, err := OpenRekeyRequest(old, 0, bad); err == nil {
		t.Error("accepted tampered rekey")
	}
	if _, _, err := OpenRekeyRequest(key16(), 0, frame); err == nil {
		t.Error("accepted rekey under wrong key")
	}
	if _, _, err := OpenRekeyRequest(old, 1, frame); !errors.Is(err, ErrReplay) {
		t.Errorf("replayed rekey: %v", err)
	}
	if _, err := SealRekeyRequest(old, 0, []byte("short"), 1); err == nil {
		t.Error("accepted short new key")
	}
}

func TestRekeyReplayAfterRotationFails(t *testing.T) {
	// Device-side view of a full rotation: the rekey frame is accepted once,
	// the device installs (newKey, newCtr) — and from then on the captured
	// frame is dead. An attacker on the bus replaying it cannot roll the
	// session back to a key it has had longer to attack.
	old := key16()
	newKey := key16()
	frame, err := SealRekeyRequest(old, 7, newKey, 4096)
	if err != nil {
		t.Fatal(err)
	}
	gotKey, gotCtr, err := OpenRekeyRequest(old, 7, frame)
	if err != nil {
		t.Fatal(err)
	}
	// Device installs the new session state.
	sessKey, sessCtr := gotKey, gotCtr

	// Replay the captured rekey frame against the rotated session: the MAC
	// was computed under the retired key, so it must not verify.
	if _, _, err := OpenRekeyRequest(sessKey, sessCtr, frame); !errors.Is(err, ErrMAC) {
		t.Errorf("replayed rekey after rotation: err = %v, want ErrMAC", err)
	}
	// Even a device that somehow kept the old key must reject it: the
	// counter embedded in the frame is behind any live expectation.
	if _, _, err := OpenRekeyRequest(old, 8, frame); !errors.Is(err, ErrReplay) {
		t.Errorf("replayed rekey at advanced counter: err = %v, want ErrReplay", err)
	}
}

func TestSecureRegUnderStaleKeyFailsAfterRekey(t *testing.T) {
	// A register frame sealed under the pre-rotation session key must be
	// worthless once the device has rotated — both when captured earlier
	// and replayed now, and when forged fresh by a host that missed the
	// rotation.
	old := key16()
	newKey := key16()

	staleFrame, err := SealRegRequest(old, 3, RegTxn{Write: true, Addr: 8, Data: 0xdead})
	if err != nil {
		t.Fatal(err)
	}

	rekey, err := SealRekeyRequest(old, 4, newKey, 9000)
	if err != nil {
		t.Fatal(err)
	}
	sessKey, sessCtr, err := OpenRekeyRequest(old, 4, rekey)
	if err != nil {
		t.Fatal(err)
	}

	// Captured-then-replayed frame from before the rotation.
	if _, err := OpenRegRequest(sessKey, sessCtr, staleFrame); !errors.Is(err, ErrMAC) {
		t.Errorf("stale secure-reg frame after rekey: err = %v, want ErrMAC", err)
	}
	// Freshly sealed frame under the stale key, even at the right counter.
	fresh, err := SealRegRequest(old, sessCtr, RegTxn{Write: true, Addr: 8, Data: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRegRequest(sessKey, sessCtr, fresh); !errors.Is(err, ErrMAC) {
		t.Errorf("stale-key secure-reg frame: err = %v, want ErrMAC", err)
	}
	// Sanity: a frame under the rotated key at the rotated counter passes.
	ok, err := SealRegRequest(sessKey, sessCtr, RegTxn{Addr: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRegRequest(sessKey, sessCtr, ok); err != nil {
		t.Errorf("post-rekey frame rejected: %v", err)
	}
}
