package smlogic

import (
	"bytes"
	"encoding/binary"
	"testing"

	"salus/internal/accel"
	"salus/internal/channel"
	"salus/internal/cryptoutil"
)

// TestBatchedSecureRegisterRoundTrip drives a whole write-then-read
// register vector through one MsgSecureRegBatch frame and checks the
// results match what the same transactions produce one frame at a time.
func TestBatchedSecureRegisterRoundTrip(t *testing.T) {
	ks := cryptoutil.RandomKey(16)
	cl := loadedCL(t, cryptoutil.RandomKey(16), ks, 10)

	txns := []channel.RegTxn{
		{Write: true, Addr: accel.RegInLen, Data: 1234},
		{Write: true, Addr: accel.RegParam0, Data: 7},
		{Write: false, Addr: accel.RegInLen},
		{Write: false, Addr: accel.RegParam0},
	}
	frame, err := channel.SealRegBatchRequest(ks, 10, txns)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.HandleTransaction(frame)
	if err != nil {
		t.Fatal(err)
	}
	res, err := channel.OpenRegBatchResponse(ks, 10, resp)
	if err != nil {
		t.Fatalf("response did not open: %v", err)
	}
	if len(res) != len(txns) {
		t.Fatalf("got %d results for %d txns", len(res), len(txns))
	}
	for i, r := range res {
		if !r.OK {
			t.Errorf("txn %d rejected", i)
		}
	}
	if res[2].Data != 1234 || res[3].Data != 7 {
		t.Errorf("read-back = %d, %d; want 1234, 7", res[2].Data, res[3].Data)
	}
}

// TestBatchedFrameConsumesOneCounterTick: the whole batch rides one
// Ctr_session tick — after a batch sealed at N, the next frame must be at
// N+1, and a single-txn frame still interoperates.
func TestBatchedFrameConsumesOneCounterTick(t *testing.T) {
	ks := cryptoutil.RandomKey(16)
	cl := loadedCL(t, cryptoutil.RandomKey(16), ks, 0)

	txns := make([]channel.RegTxn, 100)
	for i := range txns {
		txns[i] = channel.RegTxn{Write: false, Addr: accel.RegStatus}
	}
	frame, err := channel.SealRegBatchRequest(ks, 0, txns)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.HandleTransaction(frame); err != nil {
		t.Fatal(err)
	}
	// 100 transactions consumed exactly one tick: counter is now 1.
	single, err := channel.SealRegRequest(ks, 1, channel.RegTxn{Write: false, Addr: accel.RegStatus})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.HandleTransaction(single)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := channel.OpenRegResponse(ks, 1, resp); err != nil {
		t.Fatalf("counter advanced by more than one tick per batch: %v", err)
	}
}

// TestBatchedFrameReplayRejected: replaying a served batch frame must come
// back as an error frame, not a second execution.
func TestBatchedFrameReplayRejected(t *testing.T) {
	ks := cryptoutil.RandomKey(16)
	cl := loadedCL(t, cryptoutil.RandomKey(16), ks, 5)

	frame, err := channel.SealRegBatchRequest(ks, 5, []channel.RegTxn{{Write: true, Addr: accel.RegInLen, Data: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.HandleTransaction(frame); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.HandleTransaction(frame)
	if err != nil {
		t.Fatal(err)
	}
	isError(t, resp, "")
}

// TestBatchedFrameTamperRejected: one flipped ciphertext bit and the
// device must refuse the whole vector without executing any of it.
func TestBatchedFrameTamperRejected(t *testing.T) {
	ks := cryptoutil.RandomKey(16)
	cl := loadedCL(t, cryptoutil.RandomKey(16), ks, 0)

	frame, err := channel.SealRegBatchRequest(ks, 0, []channel.RegTxn{
		{Write: true, Addr: accel.RegInLen, Data: 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), frame...)
	tampered[12] ^= 0x40
	resp, err := cl.HandleTransaction(tampered)
	if err != nil {
		t.Fatal(err)
	}
	isError(t, resp, "")

	// The write must not have landed: the counter did not advance and the
	// register is untouched.
	probe, err := channel.SealRegRequest(ks, 0, channel.RegTxn{Write: false, Addr: accel.RegInLen})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = cl.HandleTransaction(probe)
	if err != nil {
		t.Fatal(err)
	}
	res, err := channel.OpenRegResponse(ks, 0, resp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data == 42 {
		t.Error("tampered batch executed anyway")
	}
}

// TestBatchedFullJobThroughLogic runs a complete Conv job where every
// secure register transaction — key program, job program, status and
// output-length reads — rides a single batched frame, exactly as the core
// runtime's batched path issues them.
func TestBatchedFullJobThroughLogic(t *testing.T) {
	ks := cryptoutil.RandomKey(16)
	cl := loadedCL(t, cryptoutil.RandomKey(16), ks, 0)

	w, _ := accel.TestWorkload("Conv", 5)
	dataKey := cryptoutil.RandomKey(16)
	iv := cryptoutil.RandomKey(16)
	outAddr := accel.SealedInLen(uint64(len(w.Input))) + 128
	encIn, openOut := dataPlaneJob(t, dataKey, iv, w, outAddr)

	memw, memErr := channel.EncodeMemWrite(channel.MemWrite{Addr: 0, Data: encIn})
	if _, err := cl.HandleTransaction(mustEnc(t, memw, memErr)); err != nil {
		t.Fatal(err)
	}

	txns := []channel.RegTxn{
		{Write: true, Addr: accel.RegKey1, Data: binary.BigEndian.Uint64(dataKey[0:8])},
		{Write: true, Addr: accel.RegKey0, Data: binary.BigEndian.Uint64(dataKey[8:16])},
		{Write: true, Addr: accel.RegIV1, Data: binary.BigEndian.Uint64(iv[0:8])},
		{Write: true, Addr: accel.RegIV0, Data: binary.BigEndian.Uint64(iv[8:16])},
		{Write: true, Addr: accel.RegInAddr, Data: 0},
		{Write: true, Addr: accel.RegInLen, Data: uint64(len(w.Input))},
		{Write: true, Addr: accel.RegOutAddr, Data: outAddr},
		{Write: true, Addr: accel.RegParam0, Data: w.Params[0]},
		{Write: true, Addr: accel.RegParam1, Data: w.Params[1]},
		{Write: true, Addr: accel.RegParam2, Data: w.Params[2]},
		{Write: true, Addr: accel.RegParam3, Data: w.Params[3]},
		{Write: true, Addr: accel.RegCtrl, Data: accel.CtrlStart},
		{Write: false, Addr: accel.RegStatus},
		{Write: false, Addr: accel.RegOutLen},
	}
	frame, err := channel.SealRegBatchRequest(ks, 0, txns)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.HandleTransaction(frame)
	if err != nil {
		t.Fatal(err)
	}
	res, err := channel.OpenRegBatchResponse(ks, 0, resp)
	if err != nil {
		t.Fatalf("batch response did not open: %v", err)
	}
	for i, r := range res[:12] {
		if !r.OK {
			t.Fatalf("program txn %d rejected", i)
		}
	}
	if res[12].Data != accel.StatusDone {
		t.Fatalf("status = %d, want done (%d)", res[12].Data, accel.StatusDone)
	}
	n := res[13].Data

	resp, err = cl.HandleTransaction(channel.EncodeMemRead(channel.MemRead{Addr: outAddr, N: uint32(n) + accel.TagSize}))
	if err != nil {
		t.Fatal(err)
	}
	sealedOut, err := channel.DecodeMemData(resp)
	if err != nil {
		t.Fatal(err)
	}
	out := openOut(sealedOut)
	want, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Error("batched job output does not match the kernel's reference output")
	}
}
