package smlogic

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"salus/internal/accel"
	"salus/internal/bitstream"
	"salus/internal/channel"
	"salus/internal/cryptoutil"
	"salus/internal/fpga"
	"salus/internal/netlist"
)

const testDNA fpga.DNA = "A58275817"

// loadedCL builds a Conv CL with known secrets, loads it on a test device,
// and returns the instantiated logic.
func loadedCL(t testing.TB, keyAttest, keySession []byte, ctr uint64) fpga.CL {
	t.Helper()
	design, err := Integrate("conv_cl", accel.Conv{}.Module())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := netlist.Implement(design, netlist.TestDevice, 31)
	if err != nil {
		t.Fatal(err)
	}
	im := bitstream.FromPlaced(pl, LogicID(accel.Conv{}))
	if err := InjectSecrets(im, keyAttest, keySession, ctr); err != nil {
		t.Fatal(err)
	}
	dev, err := fpga.Manufacture(netlist.TestDevice, testDNA)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.ICAP().Program(im.Encode()); err != nil {
		t.Fatal(err)
	}
	cl, err := dev.CL(0)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// mustEnc unwraps the two-valued channel encoders for in-limit inputs.
func mustEnc(t testing.TB, b []byte, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func isError(t *testing.T, resp []byte, wantSubstr string) {
	t.Helper()
	msg, ok := channel.DecodeError(resp)
	if !ok {
		t.Fatalf("expected error frame, got type %#x", channel.MsgType(resp))
	}
	if !strings.Contains(msg, wantSubstr) {
		t.Errorf("error %q does not mention %q", msg, wantSubstr)
	}
}

func TestIntegrateProducesValidDesign(t *testing.T) {
	d, err := Integrate("cl", accel.Affine{}.Module())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Modules) != 2 || d.Modules[1].Name != ModuleName {
		t.Errorf("modules = %v", d.Modules)
	}
	if err := Module().Validate(); err != nil {
		t.Error(err)
	}
	if Module().Res != (netlist.Resources{LUT: 27667, Register: 29631, BRAM: 88}) {
		t.Errorf("SM logic resources = %v, want Table 5 row", Module().Res)
	}
}

func TestAllKernelsFitWithSMLogic(t *testing.T) {
	// Table 5: every benchmark plus the SM logic fits the one-SLR RP.
	for _, k := range accel.Kernels() {
		d, err := Integrate(k.Name()+"_cl", k.Module())
		if err != nil {
			t.Fatal(err)
		}
		if !d.Resources().Fits(netlist.U200.RPResources) {
			t.Errorf("%s + SM logic (%v) exceeds RP budget", k.Name(), d.Resources())
		}
	}
}

func TestAttestationSucceeds(t *testing.T) {
	ka := cryptoutil.RandomKey(16)
	cl := loadedCL(t, ka, cryptoutil.RandomKey(16), 100)

	req := channel.AttestRequest{Nonce: 41, DNA: string(testDNA)}
	req.MAC = channel.AttestMACReq(ka, req.Nonce, req.DNA)
	reqEnc, encErr := req.Encode()
	resp, err := cl.HandleTransaction(mustEnc(t, reqEnc, encErr))
	if err != nil {
		t.Fatal(err)
	}
	ar, err := channel.DecodeAttestResponse(resp)
	if err != nil {
		t.Fatalf("response not an attest response: %v", err)
	}
	if ar.Value != 42 {
		t.Errorf("response value = %d, want N+1 = 42", ar.Value)
	}
	if ar.DNA != string(testDNA) {
		t.Errorf("response DNA = %q", ar.DNA)
	}
	if channel.AttestMACResp(ka, ar.Value, ar.DNA) != ar.MAC {
		t.Error("response MAC invalid")
	}
}

func TestAttestationWrongKeyFails(t *testing.T) {
	cl := loadedCL(t, cryptoutil.RandomKey(16), cryptoutil.RandomKey(16), 0)
	wrong := cryptoutil.RandomKey(16)
	req := channel.AttestRequest{Nonce: 1, DNA: string(testDNA)}
	req.MAC = channel.AttestMACReq(wrong, req.Nonce, req.DNA)
	reqEnc, encErr := req.Encode()
	resp, err := cl.HandleTransaction(mustEnc(t, reqEnc, encErr))
	if err != nil {
		t.Fatal(err)
	}
	isError(t, resp, "MAC mismatch")
}

func TestAttestationWrongDNAFails(t *testing.T) {
	// The CSP claims a different device than the one actually used: the
	// MAC binds the DNA, so the logic rejects the challenge.
	ka := cryptoutil.RandomKey(16)
	cl := loadedCL(t, ka, cryptoutil.RandomKey(16), 0)
	req := channel.AttestRequest{Nonce: 1, DNA: "B99999999"}
	req.MAC = channel.AttestMACReq(ka, req.Nonce, req.DNA)
	reqEnc, encErr := req.Encode()
	resp, err := cl.HandleTransaction(mustEnc(t, reqEnc, encErr))
	if err != nil {
		t.Fatal(err)
	}
	isError(t, resp, "MAC mismatch")
}

func TestAttestationMalformedFrame(t *testing.T) {
	cl := loadedCL(t, cryptoutil.RandomKey(16), cryptoutil.RandomKey(16), 0)
	resp, err := cl.HandleTransaction([]byte{channel.MsgAttestReq, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	isError(t, resp, "malformed")
}

func TestSecureRegisterRoundTrip(t *testing.T) {
	ks := cryptoutil.RandomKey(16)
	cl := loadedCL(t, cryptoutil.RandomKey(16), ks, 500)

	// Write the input-length register, then read it back, over two
	// counter values.
	frame, err := channel.SealRegRequest(ks, 500, channel.RegTxn{Write: true, Addr: accel.RegInLen, Data: 1234})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.HandleTransaction(frame)
	if err != nil {
		t.Fatal(err)
	}
	res, err := channel.OpenRegResponse(ks, 500, resp)
	if err != nil {
		t.Fatalf("response rejected: %v", err)
	}
	if !res.OK || res.Data != 1234 {
		t.Errorf("write result = %+v", res)
	}

	frame, err = channel.SealRegRequest(ks, 501, channel.RegTxn{Write: false, Addr: accel.RegInLen})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = cl.HandleTransaction(frame)
	if err != nil {
		t.Fatal(err)
	}
	res, err = channel.OpenRegResponse(ks, 501, resp)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Data != 1234 {
		t.Errorf("read result = %+v", res)
	}
}

func TestSecureRegisterReplayRejected(t *testing.T) {
	ks := cryptoutil.RandomKey(16)
	cl := loadedCL(t, cryptoutil.RandomKey(16), ks, 0)
	frame, err := channel.SealRegRequest(ks, 0, channel.RegTxn{Write: true, Addr: accel.RegInLen, Data: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.HandleTransaction(frame); err != nil {
		t.Fatal(err)
	}
	// Replaying the same frame: the logic's counter has advanced to 1.
	resp, err := cl.HandleTransaction(frame)
	if err != nil {
		t.Fatal(err)
	}
	isError(t, resp, "rejected")
}

func TestSecureRegisterWrongSessionKey(t *testing.T) {
	cl := loadedCL(t, cryptoutil.RandomKey(16), cryptoutil.RandomKey(16), 0)
	frame, err := channel.SealRegRequest(cryptoutil.RandomKey(16), 0, channel.RegTxn{Addr: accel.RegStatus})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.HandleTransaction(frame)
	if err != nil {
		t.Fatal(err)
	}
	isError(t, resp, "rejected")
}

func TestDirectRegisterAllowsUnprotected(t *testing.T) {
	cl := loadedCL(t, cryptoutil.RandomKey(16), cryptoutil.RandomKey(16), 0)
	resp, err := cl.HandleTransaction(channel.EncodeDirectReg(channel.RegTxn{Write: true, Addr: accel.RegParam0, Data: 9}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := channel.DecodeDirectResp(resp)
	if err != nil || !res.OK {
		t.Errorf("direct write failed: %+v %v", res, err)
	}
}

func TestDirectRegisterBlocksKeyRegisters(t *testing.T) {
	cl := loadedCL(t, cryptoutil.RandomKey(16), cryptoutil.RandomKey(16), 0)
	for _, addr := range []uint32{accel.RegKey0, accel.RegKey1, accel.RegIV0, accel.RegIV1} {
		resp, err := cl.HandleTransaction(channel.EncodeDirectReg(channel.RegTxn{Write: true, Addr: addr, Data: 1}))
		if err != nil {
			t.Fatal(err)
		}
		isError(t, resp, "secure channel")
		resp, err = cl.HandleTransaction(channel.EncodeDirectReg(channel.RegTxn{Write: false, Addr: addr}))
		if err != nil {
			t.Fatal(err)
		}
		isError(t, resp, "secure channel")
	}
}

func TestDirectRegisterBadRegister(t *testing.T) {
	cl := loadedCL(t, cryptoutil.RandomKey(16), cryptoutil.RandomKey(16), 0)
	resp, err := cl.HandleTransaction(channel.EncodeDirectReg(channel.RegTxn{Write: true, Addr: 0xFFFF, Data: 1}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := channel.DecodeDirectResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Error("write to unknown register reported OK")
	}
}

func TestMemoryChannel(t *testing.T) {
	cl := loadedCL(t, cryptoutil.RandomKey(16), cryptoutil.RandomKey(16), 0)
	data := []byte("encrypted feature map")
	wEnc, encErr := channel.EncodeMemWrite(channel.MemWrite{Addr: 64, Data: data})
	resp, err := cl.HandleTransaction(mustEnc(t, wEnc, encErr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := channel.DecodeMemData(resp); err != nil {
		t.Fatalf("DMA write not acked: %v", err)
	}
	resp, err = cl.HandleTransaction(channel.EncodeMemRead(channel.MemRead{Addr: 64, N: uint32(len(data))}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := channel.DecodeMemData(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("read back %q", got)
	}
}

func TestMemoryChannelOutOfRange(t *testing.T) {
	cl := loadedCL(t, cryptoutil.RandomKey(16), cryptoutil.RandomKey(16), 0)
	resp, err := cl.HandleTransaction(channel.EncodeMemRead(channel.MemRead{Addr: 1 << 62, N: 4}))
	if err != nil {
		t.Fatal(err)
	}
	isError(t, resp, "out of range")
}

func TestUnknownMessageType(t *testing.T) {
	cl := loadedCL(t, cryptoutil.RandomKey(16), cryptoutil.RandomKey(16), 0)
	resp, err := cl.HandleTransaction([]byte{0x55, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	isError(t, resp, "unknown message")
}

func TestInjectSecretsValidation(t *testing.T) {
	design, err := Integrate("cl", accel.Conv{}.Module())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := netlist.Implement(design, netlist.TestDevice, 1)
	if err != nil {
		t.Fatal(err)
	}
	im := bitstream.FromPlaced(pl, LogicID(accel.Conv{}))
	if err := InjectSecrets(im, make([]byte, 8), make([]byte, 16), 0); err == nil {
		t.Error("accepted short attestation key")
	}
	if err := InjectSecrets(im, make([]byte, 16), make([]byte, 16), 7); err != nil {
		t.Error(err)
	}
	loc, _ := im.Cell(SecretsCellPath)
	buf, err := im.CellBytes(loc, OffCtrSession, 8)
	if err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint64(buf) != 7 {
		t.Errorf("ctr in bitstream = %d", binary.BigEndian.Uint64(buf))
	}
}

func TestFullJobThroughLogic(t *testing.T) {
	// End to end at the CL boundary: provision the data key over the
	// secure channel, push encrypted input over the direct DMA path, run,
	// read the result.
	ks := cryptoutil.RandomKey(16)
	cl := loadedCL(t, cryptoutil.RandomKey(16), ks, 0)

	w, _ := accel.TestWorkload("Conv", 5)
	dataKey := cryptoutil.RandomKey(16)
	iv := cryptoutil.RandomKey(16)
	encIn, err := cryptoutil.XORKeyStreamCTR(dataKey, iv, w.Input)
	if err != nil {
		t.Fatal(err)
	}

	ctr := uint64(0)
	secureWrite := func(addr uint32, val uint64) {
		t.Helper()
		frame, err := channel.SealRegRequest(ks, ctr, channel.RegTxn{Write: true, Addr: addr, Data: val})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := cl.HandleTransaction(frame)
		if err != nil {
			t.Fatal(err)
		}
		res, err := channel.OpenRegResponse(ks, ctr, resp)
		if err != nil || !res.OK {
			t.Fatalf("secure write %#x failed: %+v %v", addr, res, err)
		}
		ctr++
	}
	directWrite := func(addr uint32, val uint64) {
		t.Helper()
		resp, err := cl.HandleTransaction(channel.EncodeDirectReg(channel.RegTxn{Write: true, Addr: addr, Data: val}))
		if err != nil {
			t.Fatal(err)
		}
		if res, err := channel.DecodeDirectResp(resp); err != nil || !res.OK {
			t.Fatalf("direct write %#x failed", addr)
		}
	}

	// Key exchange over the protected path.
	secureWrite(accel.RegKey1, binary.BigEndian.Uint64(dataKey[0:8]))
	secureWrite(accel.RegKey0, binary.BigEndian.Uint64(dataKey[8:16]))
	secureWrite(accel.RegIV1, binary.BigEndian.Uint64(iv[0:8]))
	secureWrite(accel.RegIV0, binary.BigEndian.Uint64(iv[8:16]))

	// Bulk ciphertext over the direct path.
	inEnc, inErr := channel.EncodeMemWrite(channel.MemWrite{Addr: 0, Data: encIn})
	if _, err := cl.HandleTransaction(mustEnc(t, inEnc, inErr)); err != nil {
		t.Fatal(err)
	}
	outAddr := uint64(len(encIn) + 128)
	directWrite(accel.RegInAddr, 0)
	directWrite(accel.RegInLen, uint64(len(encIn)))
	directWrite(accel.RegOutAddr, outAddr)
	directWrite(accel.RegParam0, w.Params[0])
	directWrite(accel.RegParam1, w.Params[1])
	directWrite(accel.RegParam2, w.Params[2])
	directWrite(accel.RegParam3, w.Params[3])
	directWrite(accel.RegCtrl, accel.CtrlStart)

	// Poll status and output length over the direct path.
	readReg := func(addr uint32) uint64 {
		t.Helper()
		resp, err := cl.HandleTransaction(channel.EncodeDirectReg(channel.RegTxn{Write: false, Addr: addr}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := channel.DecodeDirectResp(resp)
		if err != nil || !res.OK {
			t.Fatalf("direct read %#x failed", addr)
		}
		return res.Data
	}
	if s := readReg(accel.RegStatus); s != accel.StatusDone {
		t.Fatalf("status = %d", s)
	}
	n := readReg(accel.RegOutLen)
	resp, err := cl.HandleTransaction(channel.EncodeMemRead(channel.MemRead{Addr: outAddr, N: uint32(n)}))
	if err != nil {
		t.Fatal(err)
	}
	out, err := channel.DecodeMemData(resp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Error("job result through SM logic differs from direct compute")
	}
}

func TestPropertyAttestationProtocol(t *testing.T) {
	// Over random keys and nonces: a challenge MAC'd under the loaded key
	// always yields a verifiable response; any other key never does.
	ka := cryptoutil.RandomKey(16)
	cl := loadedCL(t, ka, cryptoutil.RandomKey(16), 0)
	f := func(nonce uint64, wrongKey [16]byte) bool {
		req := channel.AttestRequest{Nonce: nonce, DNA: string(testDNA)}
		req.MAC = channel.AttestMACReq(ka, req.Nonce, req.DNA)
		reqEnc, err := req.Encode()
		if err != nil {
			return false
		}
		resp, err := cl.HandleTransaction(reqEnc)
		if err != nil {
			return false
		}
		ar, err := channel.DecodeAttestResponse(resp)
		if err != nil {
			return false
		}
		if ar.Value != nonce+1 || channel.AttestMACResp(ka, ar.Value, ar.DNA) != ar.MAC {
			return false
		}
		// The wrong key neither authenticates the request...
		bad := channel.AttestRequest{Nonce: nonce, DNA: string(testDNA)}
		bad.MAC = channel.AttestMACReq(wrongKey[:], bad.Nonce, bad.DNA)
		badEnc, err := bad.Encode()
		if err != nil {
			return false
		}
		badResp, err := cl.HandleTransaction(badEnc)
		if err != nil {
			return false
		}
		if _, isErr := channel.DecodeError(badResp); !isErr && !bytes.Equal(wrongKey[:], ka) {
			return false
		}
		// ...nor verifies the genuine response.
		if channel.AttestMACResp(wrongKey[:], ar.Value, ar.DNA) == ar.MAC && !bytes.Equal(wrongKey[:], ka) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRekeyRetiresTheOldSealer is the CL end of the rotation: after the SM
// logic acknowledges a rekey, its Sealer is rekeyed in place rather than
// replaced, every response it seals is under the new key and none under the
// old, and a request still sealed under the old key is refused.
func TestRekeyRetiresTheOldSealer(t *testing.T) {
	oldKey, newKey := cryptoutil.RandomKey(16), cryptoutil.RandomKey(16)
	cl := loadedCL(t, cryptoutil.RandomKey(16), oldKey, 40)
	l := cl.(*Logic)
	txn := channel.RegTxn{Write: true, Addr: accel.RegInLen, Data: 9}
	roundTrip := func(key []byte, ctr uint64) []byte {
		t.Helper()
		frame, err := channel.SealRegRequest(key, ctr, txn)
		resp, err := cl.HandleTransaction(mustEnc(t, frame, err))
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), resp...)
	}
	batch := func(key []byte, ctr uint64) []byte {
		t.Helper()
		frame, err := channel.SealRegBatchRequest(key, ctr, []channel.RegTxn{txn, txn})
		resp, err := cl.HandleTransaction(mustEnc(t, frame, err))
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), resp...)
	}
	if _, err := channel.OpenRegResponse(oldKey, 40, roundTrip(oldKey, 40)); err != nil {
		t.Fatal(err)
	}
	oldSealer := l.sealer
	if oldSealer == nil {
		t.Fatal("no Sealer after secure traffic")
	}
	rekey, err := channel.SealRekeyRequest(oldKey, 41, newKey, 900)
	ack, err := cl.HandleTransaction(mustEnc(t, rekey, err))
	if err != nil {
		t.Fatal(err)
	}
	if err := channel.OpenRekeyResponse(oldKey, 41, ack); err != nil {
		t.Fatalf("rekey ack: %v", err)
	}
	if l.sealer != oldSealer {
		t.Fatal("the rotation replaced the epoch's Sealer instead of rekeying it")
	}
	if !bytes.Equal(l.keySession, newKey) {
		t.Fatal("Key_session not rotated")
	}

	single := roundTrip(newKey, 900)
	if _, err := channel.OpenRegResponse(newKey, 900, single); err != nil {
		t.Fatalf("response after rotation does not open under the new key: %v", err)
	}
	if _, err := channel.OpenRegResponse(oldKey, 900, single); err == nil {
		t.Error("response after rotation opens under the old key")
	}
	vec := batch(newKey, 901)
	if _, err := channel.OpenRegBatchResponse(newKey, 901, vec); err != nil {
		t.Fatalf("batch response after rotation does not open under the new key: %v", err)
	}
	if _, err := channel.OpenRegBatchResponse(oldKey, 901, vec); err == nil {
		t.Error("batch response after rotation opens under the old key")
	}
	if l.sealer != oldSealer {
		t.Fatal("the new epoch is not framed by the rekeyed Sealer")
	}
	isError(t, roundTrip(oldKey, 902), "rejected")
}

// TestDirectResponsesLiveInTheLogic: a rekey acknowledgement and a direct
// register response are both built in the Logic's own directResp, and the
// rekey leaves the new epoch's key unexpanded, so a board's post-attest
// rotation allocates nothing once a register program has sized the
// Sealer's frame buffers: it made 2 allocations when the new key was
// expanded at once and the acknowledgement grew a buffer of its own.
func TestDirectResponsesLiveInTheLogic(t *testing.T) {
	key := cryptoutil.RandomKey(16)
	cl := loadedCL(t, cryptoutil.RandomKey(16), key, 7)
	l := cl.(*Logic)
	txn := channel.RegTxn{Write: true, Addr: accel.RegInLen, Data: 9}
	frame, err := channel.SealRegBatchRequest(key, 7, []channel.RegTxn{txn, txn})
	if _, err := cl.HandleTransaction(mustEnc(t, frame, err)); err != nil {
		t.Fatal(err)
	}
	rekey, err := channel.SealRekeyRequest(key, 8, cryptoutil.RandomKey(16), 100)
	rekey = mustEnc(t, rekey, err)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ack, err := cl.HandleTransaction(rekey)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("the post-attest rekey made %d allocations, want 0", n)
	}
	if err := channel.OpenRekeyResponse(key, 8, ack); err != nil {
		t.Fatalf("rekey ack: %v", err)
	}
	if &ack[0] != &l.directResp[0] {
		t.Error("the rekey acknowledgement was not built in the Logic's directResp")
	}
	resp, err := cl.HandleTransaction(channel.EncodeDirectReg(channel.RegTxn{Write: true, Addr: accel.RegParam0, Data: 9}))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := channel.DecodeDirectResp(resp); err != nil || !res.OK {
		t.Fatalf("direct write failed: %+v %v", res, err)
	}
	if &resp[0] != &l.directResp[0] {
		t.Error("the direct register response was not built in the Logic's directResp")
	}
}

// TestHostileReadKeepsNoBigFrame: the Logic reuses one frame for DMA reads
// up to channel.DMABurst bytes, the most the host's driver asks for. A
// shell asking for all of device memory still gets its answer, in a frame
// the Logic does not keep.
func TestHostileReadKeepsNoBigFrame(t *testing.T) {
	cl := loadedCL(t, cryptoutil.RandomKey(16), cryptoutil.RandomKey(16), 0)
	resp, err := cl.HandleTransaction(channel.EncodeMemRead(channel.MemRead{Addr: 0, N: accel.MemBytes}))
	if err != nil {
		t.Fatal(err)
	}
	if data, err := channel.DecodeMemData(resp); err != nil || len(data) != accel.MemBytes {
		t.Fatalf("16 MiB read: %d bytes, %v", len(data), err)
	}
	if held := cap(cl.(*Logic).readFrame); held > 1+4+channel.DMABurst {
		t.Errorf("the Logic keeps a %d-byte read frame after a hostile read, want at most a burst", held)
	}
}

// TestReadFrameIsReused: a burst-sized DMA read response is built in the
// Logic's one read frame, which the next read reuses.
func TestReadFrameIsReused(t *testing.T) {
	cl := loadedCL(t, cryptoutil.RandomKey(16), cryptoutil.RandomKey(16), 0)
	data := []byte("device memory contents")
	wEnc, encErr := channel.EncodeMemWrite(channel.MemWrite{Addr: 0, Data: data})
	if _, err := cl.HandleTransaction(mustEnc(t, wEnc, encErr)); err != nil {
		t.Fatal(err)
	}
	read := func() []byte {
		resp, err := cl.HandleTransaction(channel.EncodeMemRead(channel.MemRead{Addr: 0, N: uint32(len(data))}))
		if err != nil {
			t.Fatal(err)
		}
		got, err := channel.DecodeMemData(resp)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read back %q, %v", got, err)
		}
		return resp
	}
	if first, second := read(), read(); &first[0] != &second[0] {
		t.Error("the second read did not reuse the first read's frame")
	}
}
