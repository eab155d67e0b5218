package shell

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/bitstream"
	"salus/internal/channel"
	"salus/internal/cryptoutil"
	"salus/internal/fpga"
	"salus/internal/netlist"
	"salus/internal/simnet"
	"salus/internal/simtime"
	"salus/internal/smlogic"
)

const dna fpga.DNA = "A58275817"

// clBitstream builds a Conv CL bitstream with the given attestation key.
func clBitstream(t testing.TB, keyAttest []byte, seed int64) []byte {
	t.Helper()
	design, err := smlogic.Integrate("conv_cl", accel.Conv{}.Module())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := netlist.Implement(design, netlist.TestDevice, seed)
	if err != nil {
		t.Fatal(err)
	}
	im := bitstream.FromPlaced(pl, smlogic.LogicID(accel.Conv{}))
	if err := smlogic.InjectSecrets(im, keyAttest, cryptoutil.RandomKey(16), 0); err != nil {
		t.Fatal(err)
	}
	return im.Encode()
}

func newShell(t testing.TB, opts ...Option) *Shell {
	t.Helper()
	dev, err := fpga.Manufacture(netlist.TestDevice, dna)
	if err != nil {
		t.Fatal(err)
	}
	return New(dev, opts...)
}

func attest(t *testing.T, s *Shell, key []byte) []byte {
	t.Helper()
	req := channel.AttestRequest{Nonce: 7, DNA: string(dna)}
	req.MAC = channel.AttestMACReq(key, req.Nonce, req.DNA)
	enc, err := req.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Transact(enc)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHonestShellLoadAndTransact(t *testing.T) {
	key := cryptoutil.RandomKey(16)
	s := newShell(t)
	if err := s.LoadCL(clBitstream(t, key, 1)); err != nil {
		t.Fatal(err)
	}
	resp := attest(t, s, key)
	ar, err := channel.DecodeAttestResponse(resp)
	if err != nil {
		t.Fatalf("attestation through honest shell failed: %v", err)
	}
	if ar.Value != 8 || channel.AttestMACResp(key, ar.Value, ar.DNA) != ar.MAC {
		t.Errorf("bad attestation response %+v", ar)
	}
	if s.DNA() != dna {
		t.Errorf("DNA = %s", s.DNA())
	}
}

func TestShellSeesAllTraffic(t *testing.T) {
	key := cryptoutil.RandomKey(16)
	rec := &Recorder{}
	s := newShell(t, WithInterceptor(rec))
	bs := clBitstream(t, key, 2)
	if err := s.LoadCL(bs); err != nil {
		t.Fatal(err)
	}
	attest(t, s, key)
	tr := rec.Frames()
	if len(tr) != 3 { // bitstream, request, response
		t.Fatalf("transcript has %d frames, want 3", len(tr))
	}
	if !bytes.Equal(tr[0], bs) {
		t.Error("shell did not record the loaded bitstream")
	}
}

func TestRecorderCopiesBorrowedFrames(t *testing.T) {
	// A request frame is borrowed: the host reuses its buffer as soon as the
	// transaction returns, so what the Recorder captured must not change.
	key := cryptoutil.RandomKey(16)
	rec := &Recorder{}
	s := newShell(t, WithInterceptor(rec))
	if err := s.LoadCL(clBitstream(t, key, 21)); err != nil {
		t.Fatal(err)
	}
	req := channel.EncodeDirectReg(channel.RegTxn{Addr: accel.RegStatus})
	want := append([]byte(nil), req...)
	if _, err := s.Transact(req); err != nil {
		t.Fatal(err)
	}
	for i := range req {
		req[i] = 0xA5
	}
	if got := rec.Frames()[1]; !bytes.Equal(got, want) {
		t.Errorf("recorded request changed with the host's buffer: %x, want %x", got, want)
	}
}

func TestShellPlaintextLoadLeaksSecrets(t *testing.T) {
	// Loading an *unencrypted* bitstream hands the shell the attestation
	// key on a platter — this is why the SM enclave must encrypt before
	// deployment. The test documents the attack working.
	key := cryptoutil.RandomKey(16)
	rec := &Recorder{}
	s := newShell(t, WithInterceptor(rec))
	if err := s.LoadCL(clBitstream(t, key, 3)); err != nil {
		t.Fatal(err)
	}
	im, err := bitstream.Decode(rec.Frames()[0])
	if err != nil {
		t.Fatal(err)
	}
	loc, _ := im.Cell(smlogic.SecretsCellPath)
	stolen, err := im.CellBytes(loc, smlogic.OffKeyAttest, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stolen, key) {
		t.Error("expected the plaintext load to leak the key (it must, absent encryption)")
	}
}

func TestShellEncryptedLoadLeaksNothing(t *testing.T) {
	key := cryptoutil.RandomKey(16)
	devKey := cryptoutil.RandomKey(cryptoutil.DeviceKeySize)
	rec := &Recorder{}
	s := newShell(t, WithInterceptor(rec))
	if err := s.Device().FuseKey(devKey); err != nil {
		t.Fatal(err)
	}
	sealed, err := bitstream.Encrypt(clBitstream(t, key, 4), devKey, netlist.TestDevice.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadCL(sealed); err != nil {
		t.Fatal(err)
	}
	for _, frame := range rec.Frames() {
		if bytes.Contains(frame, key) {
			t.Fatal("attestation key visible in shell transcript")
		}
	}
	// And the CL still works.
	resp := attest(t, s, key)
	if _, err := channel.DecodeAttestResponse(resp); err != nil {
		t.Errorf("CL not functional after encrypted load: %v", err)
	}
}

func TestTimingChargesClock(t *testing.T) {
	clock := simtime.NewClock()
	s := newShell(t, WithTiming(clock, simnet.PCIe))
	if err := s.LoadCL(clBitstream(t, cryptoutil.RandomKey(16), 5)); err != nil {
		t.Fatal(err)
	}
	if clock.Elapsed() == 0 {
		t.Error("load charged no time")
	}
	before := clock.Elapsed()
	if _, err := s.Transact(channel.EncodeDirectReg(channel.RegTxn{Addr: accel.RegStatus})); err != nil {
		t.Fatal(err)
	}
	if clock.Elapsed() <= before {
		t.Error("transaction charged no time")
	}
}

func TestSubstituteCLAttack(t *testing.T) {
	victim := cryptoutil.RandomKey(16)
	evilKey := cryptoutil.RandomKey(16)
	evil := clBitstream(t, evilKey, 99)
	s := newShell(t, WithInterceptor(SubstituteCL{Evil: evil}))

	if err := s.LoadCL(clBitstream(t, victim, 6)); err != nil {
		t.Fatal(err) // the load itself succeeds — the shell is privileged
	}
	// The substituted CL does not know the victim's Key_attest, so the
	// attestation the SM enclave runs must fail.
	resp := attest(t, s, victim)
	if _, ok := channel.DecodeError(resp); !ok {
		t.Error("substituted CL answered attestation without the key")
	}
}

func TestTamperBitsOnEncryptedLoad(t *testing.T) {
	devKey := cryptoutil.RandomKey(cryptoutil.DeviceKeySize)
	s := newShell(t, WithInterceptor(TamperBits{Offset: 1000}))
	if err := s.Device().FuseKey(devKey); err != nil {
		t.Fatal(err)
	}
	sealed, err := bitstream.Encrypt(clBitstream(t, cryptoutil.RandomKey(16), 7), devKey, netlist.TestDevice.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadCL(sealed); !errors.Is(err, fpga.ErrBadBitstream) {
		t.Errorf("tampered encrypted load: err = %v, want ErrBadBitstream", err)
	}
}

func TestTamperRequestsAttack(t *testing.T) {
	key := cryptoutil.RandomKey(16)
	sessionKey := cryptoutil.RandomKey(16)
	design, _ := smlogic.Integrate("conv_cl", accel.Conv{}.Module())
	pl, _ := netlist.Implement(design, netlist.TestDevice, 8)
	im := bitstream.FromPlaced(pl, smlogic.LogicID(accel.Conv{}))
	if err := smlogic.InjectSecrets(im, key, sessionKey, 0); err != nil {
		t.Fatal(err)
	}
	s := newShell(t, WithInterceptor(TamperRequests{}))
	if err := s.LoadCL(im.Encode()); err != nil {
		t.Fatal(err)
	}
	frame, err := channel.SealRegRequest(sessionKey, 0, channel.RegTxn{Write: true, Addr: accel.RegInLen, Data: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Transact(frame)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := channel.DecodeError(resp); !ok {
		t.Error("CL accepted a tampered secure register frame")
	}
}

func TestReplayRequestsAttack(t *testing.T) {
	key := cryptoutil.RandomKey(16)
	sessionKey := cryptoutil.RandomKey(16)
	design, _ := smlogic.Integrate("conv_cl", accel.Conv{}.Module())
	pl, _ := netlist.Implement(design, netlist.TestDevice, 9)
	im := bitstream.FromPlaced(pl, smlogic.LogicID(accel.Conv{}))
	if err := smlogic.InjectSecrets(im, key, sessionKey, 0); err != nil {
		t.Fatal(err)
	}
	s := newShell(t, WithInterceptor(&ReplayRequests{}))
	if err := s.LoadCL(im.Encode()); err != nil {
		t.Fatal(err)
	}
	// First frame goes through and is recorded.
	f0, _ := channel.SealRegRequest(sessionKey, 0, channel.RegTxn{Write: true, Addr: accel.RegInLen, Data: 1})
	resp, err := s.Transact(f0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := channel.OpenRegResponse(sessionKey, 0, resp); err != nil {
		t.Fatalf("first frame rejected: %v", err)
	}
	// Second frame is silently replaced by a replay of the first; the CL's
	// counter has advanced, so it must reject it.
	f1, _ := channel.SealRegRequest(sessionKey, 1, channel.RegTxn{Write: true, Addr: accel.RegInLen, Data: 2})
	resp, err = s.Transact(f1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := channel.DecodeError(resp); !ok {
		t.Error("CL accepted a replayed frame")
	}
}

func TestForgeAttestationAttack(t *testing.T) {
	key := cryptoutil.RandomKey(16)
	forger := &ForgeAttestation{}
	s := newShell(t, WithInterceptor(forger))
	if err := s.LoadCL(clBitstream(t, key, 10)); err != nil {
		t.Fatal(err)
	}
	resp := attest(t, s, key)
	ar, err := channel.DecodeAttestResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if forger.Attempts == 0 {
		t.Fatal("forger never fired")
	}
	// The verifier recomputes the MAC under the real key: the forgery must
	// not check out.
	if channel.AttestMACResp(key, ar.Value, ar.DNA) == ar.MAC {
		t.Error("forged attestation response verified")
	}
}

func TestSpoofDNAAttack(t *testing.T) {
	key := cryptoutil.RandomKey(16)
	s := newShell(t, WithInterceptor(SpoofDNA{Claim: "B00000000"}))
	if err := s.LoadCL(clBitstream(t, key, 11)); err != nil {
		t.Fatal(err)
	}
	resp := attest(t, s, key)
	ar, err := channel.DecodeAttestResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if ar.DNA != "B00000000" {
		t.Fatal("spoof did not fire")
	}
	if channel.AttestMACResp(key, ar.Value, ar.DNA) == ar.MAC {
		t.Error("DNA-spoofed response verified")
	}
}

func TestAttemptReadbackBlocked(t *testing.T) {
	s := newShell(t)
	if err := s.LoadCL(clBitstream(t, cryptoutil.RandomKey(16), 12)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AttemptReadback(0); !errors.Is(err, fpga.ErrReadbackDisabled) {
		t.Errorf("readback: err = %v, want ErrReadbackDisabled", err)
	}
}

func TestNoDevice(t *testing.T) {
	s := New(nil)
	if err := s.LoadCL(nil); !errors.Is(err, ErrNoDevice) {
		t.Error("LoadCL without device")
	}
	if _, err := s.Transact(nil); !errors.Is(err, ErrNoDevice) {
		t.Error("Transact without device")
	}
	if _, err := s.AttemptReadback(0); !errors.Is(err, ErrNoDevice) {
		t.Error("Readback without device")
	}
}

func TestTransactEmptyPartition(t *testing.T) {
	s := newShell(t)
	if _, err := s.Transact([]byte{1}); err == nil {
		t.Error("transacted with empty partition")
	}
}

func TestTimingLoadScalesWithSize(t *testing.T) {
	clock := simtime.NewClock()
	link := simnet.Link{Name: "pcie", RTT: time.Millisecond, Bandwidth: 1e6}
	s := newShell(t, WithTiming(clock, link))
	bs := clBitstream(t, cryptoutil.RandomKey(16), 13)
	if err := s.LoadCL(bs); err != nil {
		t.Fatal(err)
	}
	want := link.TransferTime(len(bs))
	if clock.Elapsed() != want {
		t.Errorf("charged %v, want %v", clock.Elapsed(), want)
	}
}

func TestStatsAccounting(t *testing.T) {
	key := cryptoutil.RandomKey(16)
	s := newShell(t)
	bs := clBitstream(t, key, 20)
	if err := s.LoadCL(bs); err != nil {
		t.Fatal(err)
	}
	attest(t, s, key)
	st := s.Stats()
	if st.Loads != 1 || st.LoadFailures != 0 {
		t.Errorf("loads = %+v", st)
	}
	if st.BytesLoaded != len(bs) {
		t.Errorf("bytes loaded = %d, want %d", st.BytesLoaded, len(bs))
	}
	if st.Transactions != 1 || st.TxnFailures != 0 || st.BytesIn == 0 || st.BytesOut == 0 {
		t.Errorf("txn stats = %+v", st)
	}
	// A failed load and a failed transaction are counted.
	if err := s.LoadCL([]byte("garbage")); err == nil {
		t.Fatal("garbage load accepted")
	}
	if _, err := s.TransactPartition(7, []byte{1}); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
	st = s.Stats()
	if st.LoadFailures != 1 || st.TxnFailures != 1 {
		t.Errorf("failure stats = %+v", st)
	}
}
