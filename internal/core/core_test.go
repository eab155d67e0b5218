package core

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"salus/internal/accel"
	"salus/internal/bitstream"
	"salus/internal/channel"
	"salus/internal/client"
	"salus/internal/cryptoutil"
	"salus/internal/fpga"
	"salus/internal/netlist"
	"salus/internal/shell"
	"salus/internal/smapp"
	"salus/internal/smlogic"
)

func newTestSystem(t testing.TB, opts ...func(*SystemConfig)) *System {
	t.Helper()
	cfg := SystemConfig{Kernel: accel.Conv{}, Seed: 7}
	for _, o := range opts {
		o(&cfg)
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// recorded installs a snooping Recorder on the system's shell and returns
// the option together with the recorder.
func recorded() (func(*SystemConfig), *shell.Recorder) {
	rec := &shell.Recorder{}
	return func(c *SystemConfig) { c.Interceptor = rec }, rec
}

func TestDevelopCL(t *testing.T) {
	pkg, err := DevelopCL(accel.Affine{}, netlist.TestDevice, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.KernelName != "Affine" || pkg.LogicID != "salus-cl/Affine" {
		t.Errorf("package identity: %+v", pkg)
	}
	if pkg.Digest != cryptoutil.Digest(pkg.Encoded) {
		t.Error("digest does not match encoded bitstream")
	}
	if pkg.Loc.Path != "salus_sm/secrets" || pkg.Loc.FrameCount == 0 {
		t.Errorf("Loc = %+v", pkg.Loc)
	}
	// Different seeds move the RoT location — the property that frees the
	// developer from pinning the SM logic.
	pkg2, err := DevelopCL(accel.Affine{}, netlist.TestDevice, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pkg2.Digest == pkg.Digest {
		t.Error("independent compiles produced identical bitstreams")
	}
}

func TestSecureBootSucceeds(t *testing.T) {
	s := newTestSystem(t)
	rep, err := s.SecureBoot()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Attested {
		t.Error("CL not attested in report")
	}
	if rep.Result.DNA != string(s.Device.DNA()) {
		t.Errorf("report DNA = %s", rep.Result.DNA)
	}
	if !s.Booted() || !s.SM.Attested() {
		t.Error("system state not booted/attested")
	}
	if rep.Quote.MRENCLAVE != s.User.Measurement() {
		t.Error("final quote is not the user enclave's")
	}
	if _, err := s.User.DataKey(); err != nil {
		t.Errorf("data key not provisioned: %v", err)
	}
	if s.Device.Loads() != 1 {
		t.Errorf("device loads = %d", s.Device.Loads())
	}
}

func TestSecureBootOnlyOnce(t *testing.T) {
	s := newTestSystem(t)
	if _, err := s.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SecureBoot(); err == nil {
		t.Error("second boot accepted")
	}
}

func TestSecureBootKeepsSecretsOffTheBus(t *testing.T) {
	// Nothing in the shell's transcript may contain the attestation key,
	// session key, or data key material. We can't read those keys (they're
	// enclave state), but we can check the strongest observable: the
	// plaintext manipulated bitstream never appears, i.e. every loaded
	// frame set is encrypted.
	rec, bus := recorded()
	s := newTestSystem(t, rec)
	if _, err := s.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	for i, frame := range bus.Frames() {
		if bytes.HasPrefix(frame, []byte("SLSBSTR1")) {
			t.Errorf("frame %d: plaintext bitstream crossed the shell", i)
		}
	}
}

func TestRunJobAllKernels(t *testing.T) {
	for _, k := range accel.Kernels() {
		k := k
		t.Run(k.Name(), func(t *testing.T) {
			s := newTestSystem(t, func(c *SystemConfig) { c.Kernel = k })
			if _, err := s.SecureBoot(); err != nil {
				t.Fatal(err)
			}
			w, ok := accel.TestWorkload(k.Name(), 11)
			if !ok {
				t.Fatal("no workload")
			}
			got, err := s.RunJob(w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := k.Compute(w.Params, w.Input)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("offloaded result differs from reference")
			}
		})
	}
}

func TestRunJobRequiresBoot(t *testing.T) {
	s := newTestSystem(t)
	w, _ := accel.TestWorkload("Conv", 1)
	if _, err := s.RunJob(w); err == nil {
		t.Error("ran job before boot")
	}
}

func TestRunJobWrongKernel(t *testing.T) {
	s := newTestSystem(t)
	if _, err := s.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	w, _ := accel.TestWorkload("Affine", 1)
	if _, err := s.RunJob(w); err == nil {
		t.Error("ran Affine workload on Conv CL")
	}
}

func TestRunJobTwiceFreshIVs(t *testing.T) {
	s := newTestSystem(t)
	if _, err := s.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	w, _ := accel.TestWorkload("Conv", 2)
	a, err := s.RunJob(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RunJob(w)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("same workload produced different results")
	}
}

// --- Table 3: the attack matrix ---------------------------------------------

func TestAttackSubstituteCL(t *testing.T) {
	// Attack 1 (integrity during booting): the shell loads its own CL.
	// The substituted CL lacks the freshly injected Key_attest, so step ⑦
	// fails and the data owner never receives a valid report.
	evilPkg, err := DevelopCL(accel.Conv{}, netlist.TestDevice, 666)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSystem(t, func(c *SystemConfig) {
		c.Interceptor = shell.SubstituteCL{Evil: evilPkg.Encoded}
	})
	_, err = s.SecureBoot()
	if !errors.Is(err, smapp.ErrCLAttestation) {
		t.Errorf("err = %v, want ErrCLAttestation", err)
	}
	if _, derr := s.User.DataKey(); derr == nil {
		t.Error("data key provisioned despite failed attestation")
	}
}

func TestAttackTamperEncryptedBitstream(t *testing.T) {
	// Blind modification of the encrypted bitstream: the FPGA's internal
	// AES-GCM decryption rejects it at load (step ⑤⑥).
	s := newTestSystem(t, func(c *SystemConfig) {
		c.Interceptor = shell.TamperBits{Offset: 4096}
	})
	_, err := s.SecureBoot()
	if err == nil || !strings.Contains(err.Error(), "deployment") {
		t.Errorf("err = %v, want deployment failure", err)
	}
}

func TestAttackServeWrongBitstream(t *testing.T) {
	// A hostile CSP storage serves a different (validly formatted)
	// bitstream: the SM enclave's digest check (⑤a) refuses to inject the
	// RoT into it.
	s := newTestSystem(t)
	if err := s.User.LocalAttestSM(); err != nil {
		t.Fatal(err)
	}
	md := smapp.Metadata{Digest: s.Package.Digest, Loc: s.Package.Loc}
	if err := s.User.ForwardMetadata(md); err != nil {
		t.Fatal(err)
	}
	if err := s.SM.FetchDeviceKey(); err != nil {
		t.Fatal(err)
	}
	other, err := DevelopCL(accel.Conv{}, netlist.TestDevice, 31337)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SM.DeployCL(other.Encoded); !errors.Is(err, smapp.ErrDigest) {
		t.Errorf("err = %v, want ErrDigest", err)
	}
}

func TestAttackTamperAttestationBus(t *testing.T) {
	// Attack 3 (bus integrity): flipping bits in PCIe transactions breaks
	// the attestation MAC — step ⑦ fails.
	s := newTestSystem(t, func(c *SystemConfig) {
		c.Interceptor = shell.TamperResponses{}
	})
	_, err := s.SecureBoot()
	if !errors.Is(err, smapp.ErrCLAttestation) {
		t.Errorf("err = %v, want ErrCLAttestation", err)
	}
}

func TestAttackForgeAttestation(t *testing.T) {
	forger := &shell.ForgeAttestation{}
	s := newTestSystem(t, func(c *SystemConfig) { c.Interceptor = forger })
	_, err := s.SecureBoot()
	if !errors.Is(err, smapp.ErrCLAttestation) {
		t.Errorf("err = %v, want ErrCLAttestation", err)
	}
	if forger.Attempts == 0 {
		t.Error("forger never engaged")
	}
}

func TestAttackSpoofDNA(t *testing.T) {
	s := newTestSystem(t, func(c *SystemConfig) {
		c.Interceptor = shell.SpoofDNA{Claim: "B00000000"}
	})
	_, err := s.SecureBoot()
	if !errors.Is(err, smapp.ErrCLAttestation) {
		t.Errorf("err = %v, want ErrCLAttestation", err)
	}
}

func TestAttackReplayRuntimeChannel(t *testing.T) {
	// Attack 3 on runtime transactions: the boot survives (its single
	// attestation exchange is not a secure-reg frame), but the replayed
	// session frame during the job is rejected by the counter.
	s := newTestSystem(t, func(c *SystemConfig) {
		c.Interceptor = &shell.ReplayRequests{}
	})
	if _, err := s.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	w, _ := accel.TestWorkload("Conv", 3)
	if _, err := s.RunJob(w); err == nil {
		t.Error("job succeeded despite replayed secure frames")
	}
}

func TestClientRejectsWrongExpectations(t *testing.T) {
	s := newTestSystem(t)
	rep, err := s.SecureBoot()
	if err != nil {
		t.Fatal(err)
	}
	base := s.Expectations()

	mutations := map[string]func(*client.Expectations){
		"user enclave": func(e *client.Expectations) { e.UserEnclave[0] ^= 1 },
		"sm enclave":   func(e *client.Expectations) { e.SMEnclave[0] ^= 1 },
		"digest":       func(e *client.Expectations) { e.Digest[0] ^= 1 },
		"dna":          func(e *client.Expectations) { e.DNA = "X" },
	}
	for name, mutate := range mutations {
		exp := base
		mutate(&exp)
		v := client.New(exp)
		if _, err := v.VerifyRAResponse(rep.Nonce, rep.Quote); !errors.Is(err, client.ErrVerify) {
			t.Errorf("%s mutation: err = %v, want ErrVerify", name, err)
		}
	}
	// Sanity: the untouched expectations do verify.
	if _, err := client.New(base).VerifyRAResponse(rep.Nonce, rep.Quote); err != nil {
		t.Errorf("baseline verification failed: %v", err)
	}
	// And a stale nonce (replayed quote) fails.
	if _, err := client.New(base).VerifyRAResponse([]byte("old"), rep.Quote); !errors.Is(err, client.ErrVerify) {
		t.Error("replayed quote accepted")
	}
}

// --- Ablations ---------------------------------------------------------------

func TestAblationMultiStageWindow(t *testing.T) {
	ms := newTestSystem(t)
	out, err := ms.MultiStageBoot()
	if err != nil {
		t.Fatal(err)
	}
	if out.Window() <= 0 {
		t.Errorf("multi-stage window = %v, want > 0", out.Window())
	}
	// Cascaded attestation closes the window: the report only exists after
	// the CL attested (BootReport is unreachable otherwise — enforced by
	// GenerateRAResponse requiring the result).
	cs := newTestSystem(t)
	rep, err := cs.SecureBoot()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Attested {
		t.Error("cascaded report without attested CL")
	}
}

func TestAblationReadbackEnabled(t *testing.T) {
	// With the legacy ICAP (readback on), a malicious shell can scan the
	// loaded CL, extract Key_attest, and forge valid attestation responses
	// — the attack §5.1.2's requirement prevents.
	s := newTestSystem(t, func(c *SystemConfig) {
		c.DeviceOpts = []fpga.Option{fpga.WithReadbackEnabled()}
	})
	if _, err := s.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	raw, err := s.Shell.AttemptReadback(0)
	if err != nil {
		t.Fatalf("readback should succeed on a legacy device: %v", err)
	}
	im, err := bitstream.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	loc, ok := im.Cell(smlogic.SecretsCellPath)
	if !ok {
		t.Fatal("no secrets cell in readback")
	}
	stolen, err := im.CellBytes(loc, smlogic.OffKeyAttest, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Prove the stolen key is the live one: forge a fresh challenge and
	// have the real CL accept it.
	req := channel.AttestRequest{Nonce: 999, DNA: string(s.Device.DNA())}
	req.MAC = channel.AttestMACReq(stolen, req.Nonce, req.DNA)
	reqEnc, err := req.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Shell.Transact(reqEnc)
	if err != nil {
		t.Fatal(err)
	}
	if _, derr := channel.DecodeAttestResponse(resp); derr != nil {
		t.Errorf("stolen key failed to forge attestation — expected the legacy attack to work: %v", derr)
	}
	// On a compliant device the same theft is impossible.
	s2 := newTestSystem(t)
	if _, err := s2.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Shell.AttemptReadback(0); !errors.Is(err, fpga.ErrReadbackDisabled) {
		t.Errorf("compliant device allowed readback: %v", err)
	}
}

// --- Extensions ---------------------------------------------------------------

func TestMultiRPBootAndIsolation(t *testing.T) {
	systems, err := NewPartitionSystems(SystemConfig{DNA: "A58275817", Timing: FastTiming()},
		[]accel.Kernel{accel.Conv{}, accel.Affine{}})
	if err != nil {
		t.Fatal(err)
	}
	dev := systems[0].Device
	for i, sys := range systems {
		if _, err := sys.SecureBoot(); err != nil {
			t.Fatalf("partition %d boot: %v", i, err)
		}
		if !sys.SM.Attested() {
			t.Errorf("partition %d not attested", i)
		}
		if sys.Device != dev || sys.Partition() != i {
			t.Errorf("partition %d: system sits on %s/rp%d", i, sys.Device.DNA(), sys.Partition())
		}
	}
	if dev.Loads() != 2 {
		t.Errorf("loads = %d, want 2", dev.Loads())
	}
	// Partitions run their own kernels.
	cl0, err := dev.CL(0)
	if err != nil {
		t.Fatal(err)
	}
	cl1, err := dev.CL(1)
	if err != nil {
		t.Fatal(err)
	}
	if cl0.LogicID() == cl1.LogicID() {
		t.Error("partitions share logic identity")
	}
	// ... and each serves its own job path.
	for i, sys := range systems {
		w, ok := accel.TestWorkload(sys.Package.KernelName, int64(40+i))
		if !ok {
			t.Fatalf("no test workload for %s", sys.Package.KernelName)
		}
		got, err := sys.RunJob(w)
		if err != nil {
			t.Fatalf("partition %d job: %v", i, err)
		}
		want, err := w.Kernel.Compute(w.Params, w.Input)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("partition %d output diverges from the %s golden", i, sys.Package.KernelName)
		}
	}
}

func TestProtectedMemorySystem(t *testing.T) {
	s := newTestSystem(t, func(c *SystemConfig) {
		c.Kernel = accel.NNSearch{}
		c.ProtectedMemory = true
	})
	if s.Package.LogicID != "salus-cl-bmt/NNSearch" {
		t.Fatalf("logic id = %s", s.Package.LogicID)
	}
	if _, err := s.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	w, _ := accel.TestWorkload("NNSearch", 17)
	got, err := s.RunJob(w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("protected CL output differs")
	}
}

func TestConcurrentJobsSerialised(t *testing.T) {
	s := newTestSystem(t)
	if _, err := s.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	want := map[int64][]byte{}
	for seed := int64(0); seed < 4; seed++ {
		w, _ := accel.TestWorkload("Conv", seed)
		out, err := w.Kernel.Compute(w.Params, w.Input)
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = out
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seed := int64(i % 4)
			w, _ := accel.TestWorkload("Conv", seed)
			got, err := s.RunJob(w)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, want[seed]) {
				t.Errorf("goroutine %d: wrong result", i)
			}
		}(i)
	}
	wg.Wait()
}

func TestLargeDMAJobChunked(t *testing.T) {
	// A workload bigger than one DMA burst exercises the chunked write
	// path end to end.
	s := newTestSystem(t, func(c *SystemConfig) { c.Kernel = accel.Affine{} })
	if _, err := s.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	w := accel.GenAffine(1536, 1024, 3) // 1.5 MiB image > 1 MiB burst
	got, err := s.RunJob(w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("chunked DMA job result differs")
	}
}

func TestSystemRekeyBetweenJobs(t *testing.T) {
	s := newTestSystem(t)
	if _, err := s.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	w, _ := accel.TestWorkload("Conv", 8)
	if _, err := s.RunJob(w); err != nil {
		t.Fatal(err)
	}
	if err := s.RekeySession(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunJob(w); err != nil {
		t.Fatalf("job after rekey: %v", err)
	}
}

func TestBootTranscriptShape(t *testing.T) {
	// The protocol's bus footprint is part of its contract: the shell sees
	// exactly one (encrypted) bitstream and one attestation exchange
	// during boot — nothing else leaks onto PCIe.
	rec, bus := recorded()
	s := newTestSystem(t, rec)
	if _, err := s.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	tr := bus.Frames()
	if len(tr) != 3 {
		t.Fatalf("boot transcript has %d frames, want 3", len(tr))
	}
	if !bitstream.IsEncrypted(tr[0]) {
		t.Error("frame 0 is not the encrypted bitstream")
	}
	if channel.MsgType(tr[1]) != channel.MsgAttestReq {
		t.Errorf("frame 1 type %#x, want attestation request", channel.MsgType(tr[1]))
	}
	if channel.MsgType(tr[2]) != channel.MsgAttestResp {
		t.Errorf("frame 2 type %#x, want attestation response", channel.MsgType(tr[2]))
	}

	// The first job adds: 4 secure reg pairs (key/IV exchange), DMA
	// write(s), direct reg writes/reads, the secure start command, and the
	// DMA read — every frame one of the known types.
	w, _ := accel.TestWorkload("Conv", 1)
	if _, err := s.RunJob(w); err != nil {
		t.Fatal(err)
	}
	allowed := map[byte]bool{
		channel.MsgSecureReg: true, channel.MsgSecureRegResp: true,
		channel.MsgDirectReg: true, channel.MsgDirectResp: true,
		channel.MsgMemWrite: true, channel.MsgMemRead: true, channel.MsgMemData: true,
	}
	for i, f := range bus.Frames()[3:] {
		if !allowed[channel.MsgType(f)] {
			t.Errorf("job frame %d has unexpected type %#x", i, channel.MsgType(f))
		}
	}
	countSecure := func() int {
		n := 0
		for _, f := range bus.Frames() {
			if channel.MsgType(f) == channel.MsgSecureReg {
				n++
			}
		}
		return n
	}
	if got := countSecure(); got != 5 {
		t.Errorf("%d secure register frames, want exactly 5 (key/IV exchange + start)", got)
	}

	// A second job reuses the cached session: exactly one more secure
	// frame (the start command), no repeated key exchange.
	if _, err := s.RunJob(w); err != nil {
		t.Fatal(err)
	}
	if got := countSecure(); got != 6 {
		t.Errorf("%d secure register frames after second job, want 6 (session reuse)", got)
	}
}

// forgeOutLen rewrites the response to a direct RegOutLen read with an
// attacker-chosen 64-bit value whose low 32 bits look plausible — the
// truncation lure a hostile shell could use against a host that narrows
// the register to uint32.
type forgeOutLen struct {
	shell.PassThrough
	value   uint64
	pending bool
}

func (a *forgeOutLen) OnRequest(r []byte) []byte {
	if txn, err := channel.DecodeDirectReg(r); err == nil && !txn.Write && txn.Addr == accel.RegOutLen {
		a.pending = true
	}
	return r
}

func (a *forgeOutLen) OnResponse(r []byte) []byte {
	if !a.pending || channel.MsgType(r) != channel.MsgDirectResp {
		return r
	}
	a.pending = false
	return channel.AppendDirectResp(nil, channel.RegResult{Data: a.value, OK: true})
}

func TestRunJobRejectsImplausibleOutLen(t *testing.T) {
	// 1<<40 | 64 truncates to a plausible 64 under uint32() — the host
	// must validate the full 64-bit register instead.
	s := newTestSystem(t, func(c *SystemConfig) {
		c.Interceptor = &forgeOutLen{value: 1<<40 | 64}
	})
	if _, err := s.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	w, _ := accel.TestWorkload("Conv", 9)
	_, err := s.RunJob(w)
	if err == nil || !strings.Contains(err.Error(), "implausible output length") {
		t.Errorf("err = %v, want implausible-output-length rejection", err)
	}
}

func TestSessionRekeyEveryNJobs(t *testing.T) {
	rec, bus := recorded()
	s := newTestSystem(t, rec, func(c *SystemConfig) { c.SessionRekeyEvery = 2 })
	if _, err := s.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	w, _ := accel.TestWorkload("Conv", 4)
	want, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		got, err := s.RunJob(w)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("job %d: wrong result", i)
		}
	}
	// Five jobs at rekey-every-2: epochs start at jobs 0, 2, 4 — three
	// 4-write exchanges plus five secure start commands — and the second
	// and third epoch each rotate the register-channel key first.
	secure, rekeys := 0, 0
	for _, f := range bus.Frames() {
		switch channel.MsgType(f) {
		case channel.MsgSecureReg:
			secure++
		case channel.MsgRekey:
			rekeys++
		}
	}
	if secure != 3*4+5 {
		t.Errorf("secure frames = %d, want %d", secure, 3*4+5)
	}
	if rekeys != 2 {
		t.Errorf("rekey frames = %d, want 2", rekeys)
	}
}

func TestSessionSurvivesExplicitRekey(t *testing.T) {
	// An external RekeySession rotates the register-channel epoch but not
	// the cached data-key session: the next job must still run (its secure
	// start rides the new channel epoch) without a fresh key exchange.
	rec, bus := recorded()
	s := newTestSystem(t, rec)
	if _, err := s.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	w, _ := accel.TestWorkload("Conv", 6)
	if _, err := s.RunJob(w); err != nil {
		t.Fatal(err)
	}
	if err := s.RekeySession(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunJob(w); err != nil {
		t.Fatalf("job after rekey: %v", err)
	}
	exchanges := 0
	for _, f := range bus.Frames() {
		if channel.MsgType(f) == channel.MsgSecureReg {
			exchanges++
		}
	}
	if exchanges != 4+2 {
		t.Errorf("secure frames = %d, want 6 (one exchange, two starts)", exchanges)
	}
}
