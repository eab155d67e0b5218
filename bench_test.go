// Benchmark harness: one bench (or bench family) per table and figure of
// the paper's evaluation, plus the design-choice ablations called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Figure/table mapping:
//
//	BenchmarkFigure9*    — §6.3 booting time (U200-scale bitstream ops)
//	BenchmarkTable5*     — §6.2 implementation/resource accounting
//	BenchmarkFigure10*   — §6.4 workload execution (real kernels)
//	BenchmarkTable6*     — §6.4 TEE slowdown model
//	BenchmarkFigure4a*   — CL attestation protocol
//	BenchmarkFigure4b*   — cascaded attestation (full boot, fast timing)
//	BenchmarkAblation*   — design-choice ablations
package salus_test

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"os"
	"testing"
	"time"

	"fmt"
	"salus"
	"salus/internal/accel"
	"salus/internal/bitman"
	"salus/internal/bitstream"
	"salus/internal/channel"

	"salus/internal/core"
	"salus/internal/cryptoutil"
	"salus/internal/fpga"
	"salus/internal/netlist"
	"salus/internal/perfmodel"
	"salus/internal/sched"
	"salus/internal/siphash"
	"salus/internal/smlogic"
)

// --- Figure 9: booting time ---------------------------------------------------

// BenchmarkFigure9SecureBootU200 runs the complete secure CL booting flow
// on a real ~32 MiB partial bitstream under the calibrated timing model.
// The reported wall time is the real compute; the virtual breakdown is
// printed by cmd/salus-report.
func BenchmarkFigure9SecureBootU200(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := salus.RunFigure9("Conv")
		if err != nil {
			b.Fatal(err)
		}
		if !r.Report.Result.Attested {
			b.Fatal("boot did not attest")
		}
	}
}

func u200Package(b *testing.B) *core.CLPackage {
	b.Helper()
	pkg, err := core.DevelopCL(accel.Conv{}, netlist.U200, 1)
	if err != nil {
		b.Fatal(err)
	}
	return pkg
}

// BenchmarkFigure9BitstreamManipulation is the dominant boot phase: full
// parse, RoT injection, re-serialisation of the U200-scale bitstream.
func BenchmarkFigure9BitstreamManipulation(b *testing.B) {
	pkg := u200Package(b)
	secret := make([]byte, smlogic.SecretsSize)
	b.SetBytes(int64(len(pkg.Encoded)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tool, err := bitman.Open(pkg.Encoded)
		if err != nil {
			b.Fatal(err)
		}
		if err := tool.Inject(pkg.Loc, 0, secret); err != nil {
			b.Fatal(err)
		}
		if out := tool.Serialize(); len(out) == 0 {
			b.Fatal("empty serialisation")
		}
	}
}

// BenchmarkFigure9BitstreamVerify is the digest check (⑤a).
func BenchmarkFigure9BitstreamVerify(b *testing.B) {
	pkg := u200Package(b)
	b.SetBytes(int64(len(pkg.Encoded)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cryptoutil.Digest(pkg.Encoded) != pkg.Digest {
			b.Fatal("digest mismatch")
		}
	}
}

// BenchmarkFigure9BitstreamEncrypt is the AES-GCM-256 sealing (⑤c).
func BenchmarkFigure9BitstreamEncrypt(b *testing.B) {
	pkg := u200Package(b)
	key := cryptoutil.RandomKey(cryptoutil.DeviceKeySize)
	b.SetBytes(int64(len(pkg.Encoded)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bitstream.Encrypt(pkg.Encoded, key, netlist.U200.Name); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 5: implementation/resource accounting --------------------------------

// BenchmarkTable5DevelopCL measures the developer flow (integrate SM logic,
// implement, assemble bitstream, record H and Loc) per benchmark.
func BenchmarkTable5DevelopCL(b *testing.B) {
	for _, k := range accel.Kernels() {
		k := k
		b.Run(k.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.DevelopCL(k, netlist.TestDevice, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 10 / Table 6: workload execution ------------------------------------

// runKernelCPU really runs a kernel on the host CPU, optionally with the
// TEE data path: encrypt the input, decrypt it inside, compute, and
// re-encrypt the output when the kernel's outbound traffic is encrypted.
func runKernelCPU(k accel.Kernel, w accel.Workload, tee bool) error {
	input := w.Input
	if tee {
		key, iv := cryptoutil.RandomKey(16), cryptoutil.RandomKey(16)
		enc, err := cryptoutil.XORKeyStreamCTR(key, iv, w.Input)
		if err != nil {
			return err
		}
		if input, err = cryptoutil.XORKeyStreamCTR(key, iv, enc); err != nil {
			return err
		}
	}
	out, err := k.Compute(w.Params, input)
	if err != nil {
		return err
	}
	if tee && k.EncryptOutput() {
		_, err = cryptoutil.XORKeyStreamCTR(cryptoutil.RandomKey(16), cryptoutil.RandomKey(16), out)
	}
	return err
}

// BenchmarkFigure10Kernels really executes each benchmark kernel at paper
// scale, plain and with the TEE's traffic encryption.
func BenchmarkFigure10Kernels(b *testing.B) {
	for _, k := range accel.Kernels() {
		k := k
		w, ok := accel.PaperWorkload(k.Name(), 1)
		if !ok {
			b.Fatalf("no workload for %s", k.Name())
		}
		b.Run(k.Name()+"/plain", func(b *testing.B) {
			b.SetBytes(int64(len(w.Input)))
			for i := 0; i < b.N; i++ {
				if err := runKernelCPU(k, w, false); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(k.Name()+"/tee", func(b *testing.B) {
			b.SetBytes(int64(len(w.Input)))
			for i := 0; i < b.N; i++ {
				if err := runKernelCPU(k, w, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable6Model evaluates the analytic slowdown model (cheap; the
// point is regression: the calibrated rows must keep their shape).
func BenchmarkTable6Model(b *testing.B) {
	c := perfmodel.DefaultConstants()
	for i := 0; i < b.N; i++ {
		rows := perfmodel.Table6(c)
		if len(rows) != 5 {
			b.Fatal("missing rows")
		}
	}
}

// --- Figure 4a / 4b: attestation protocols ---------------------------------------

// BenchmarkFigure4aCLAttestation measures one symmetric challenge/response
// against a loaded CL through the shell (§6.3 reports 1.3 ms including
// PCIe; this is the pure compute path).
func BenchmarkFigure4aCLAttestation(b *testing.B) {
	sys, err := salus.NewSystem(salus.SystemConfig{Kernel: salus.Conv{}, Timing: salus.FastTiming()})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.SecureBoot(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.SM.AttestCL(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4bCascadedAttestation measures a complete secure boot with
// cascaded attestation on the small device profile (no timing model): all
// protocol crypto, bitstream work, and verification, end to end.
func BenchmarkFigure4bCascadedAttestation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := salus.NewSystem(salus.SystemConfig{Kernel: salus.Conv{}, Timing: salus.FastTiming(), Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.SecureBoot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSecureRegisterChannel measures one protected register
// transaction through SM enclave + shell + SM logic (§4.5).
func BenchmarkSecureRegisterChannel(b *testing.B) {
	sys, err := salus.NewSystem(salus.SystemConfig{Kernel: salus.Conv{}, Timing: salus.FastTiming()})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.SecureBoot(); err != nil {
		b.Fatal(err)
	}
	txn := channel.RegTxn{Write: true, Addr: accel.RegParam0, Data: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.User.SecureReg(txn); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---------------------------------------------------------------------

// BenchmarkAblationAttestationScheme compares Salus's symmetric CL
// attestation MAC against the PKE round a ShEF-style remote attestation
// would pay per challenge (signature + verification), justifying Solution 2.
func BenchmarkAblationAttestationScheme(b *testing.B) {
	msg := make([]byte, 64)
	key := cryptoutil.RandomKey(16)

	b.Run("salus-symmetric-siphash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mac := siphash.Sum64(key, msg)
			if !siphash.Verify(key, msg, mac) {
				b.Fatal("verify failed")
			}
		}
	})

	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("shef-style-pke", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sig := ed25519.Sign(priv, msg)
			if !ed25519.Verify(pub, msg, sig) {
				b.Fatal("verify failed")
			}
		}
	})
}

// BenchmarkAblationMACEngine compares the SM logic's MAC options: SipHash
// (chosen — light-weight ARX, small hardware footprint), HMAC-SHA256, and
// AES-CMAC, over attestation-sized messages.
func BenchmarkAblationMACEngine(b *testing.B) {
	msg := make([]byte, 64)
	key16 := cryptoutil.RandomKey(16)
	key32 := cryptoutil.RandomKey(32)
	b.Run("siphash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			siphash.Sum64(key16, msg)
		}
	})
	b.Run("hmac-sha256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mac := hmac.New(sha256.New, key32)
			mac.Write(msg)
			mac.Sum(nil)
		}
	})
	b.Run("aes-cmac", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cryptoutil.CMAC(key16, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationInjectionPath compares dynamic RoT injection by
// bitstream manipulation (Salus) against regenerating the bitstream from a
// re-implemented netlist (the naive hard-code-and-recompile path — and the
// simulated "recompile" is *charitable*: real place-and-route takes hours,
// not the milliseconds of our placement model).
func BenchmarkAblationInjectionPath(b *testing.B) {
	pkg, err := core.DevelopCL(accel.Conv{}, netlist.TestDevice, 5)
	if err != nil {
		b.Fatal(err)
	}
	secret := make([]byte, smlogic.SecretsSize)

	b.Run("salus-manipulation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tool, err := bitman.Open(pkg.Encoded)
			if err != nil {
				b.Fatal(err)
			}
			if err := tool.Inject(pkg.Loc, 0, secret); err != nil {
				b.Fatal(err)
			}
			tool.Serialize()
		}
	})
	b.Run("recompile-lower-bound", func(b *testing.B) {
		design, err := smlogic.Integrate("conv_cl", accel.Conv{}.Module())
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			pl, err := netlist.Implement(design, netlist.TestDevice, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			im := bitstream.FromPlaced(pl, "salus-cl/Conv")
			if err := smlogic.InjectSecrets(im, secret[:16], secret[16:32], 0); err != nil {
				b.Fatal(err)
			}
			im.Encode()
		}
	})
}

// BenchmarkAblationLocalVsRemoteUserAttestation compares the in-host local
// attestation (836 µs in the paper) against a full quote generation +
// verification round (what chaining via remote attestation would cost).
func BenchmarkAblationLocalVsRemoteUserAttestation(b *testing.B) {
	sys, err := salus.NewSystem(salus.SystemConfig{Kernel: salus.Conv{}, Timing: salus.FastTiming()})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("local-attestation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := sys.User.LocalAttestSM(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("remote-attestation-quote", func(b *testing.B) {
		exp := sys.Expectations()
		_ = exp
		for i := 0; i < b.N; i++ {
			q := sys.User.GenerateUnchainedQuote([]byte("nonce"), 0)
			if q.MRENCLAVE != sys.User.Measurement() {
				b.Fatal("bad quote")
			}
		}
	})
}

// BenchmarkAblationBitstreamScale quantifies §6.3's claim that bitstream
// operation time depends only on the reserved partition area: manipulation
// throughput across partition sizes is flat (time grows linearly with
// frames), regardless of the accelerator inside.
func BenchmarkAblationBitstreamScale(b *testing.B) {
	for _, frames := range []int{1024, 4096, 16384} {
		profile := netlist.TestDevice
		profile.Name = "xcscale"
		profile.FramesPerSLR = frames
		pkg, err := core.DevelopCL(accel.Conv{}, profile, 1)
		if err != nil {
			b.Fatal(err)
		}
		secret := make([]byte, smlogic.SecretsSize)
		b.Run(fmt.Sprintf("frames-%d", frames), func(b *testing.B) {
			b.SetBytes(int64(len(pkg.Encoded)))
			for i := 0; i < b.N; i++ {
				tool, err := bitman.Open(pkg.Encoded)
				if err != nil {
					b.Fatal(err)
				}
				if err := tool.Inject(pkg.Loc, 0, secret); err != nil {
					b.Fatal(err)
				}
				tool.Serialize()
			}
		})
	}
}

// BenchmarkTable4SizeInvariance verifies the §6.3 footnote: the partial
// bitstream size is identical across all five accelerators because it is
// fixed by the floor plan, not the logic.
func BenchmarkTable4SizeInvariance(b *testing.B) {
	// The configuration payload (frames x frame bytes) must be identical
	// across kernels; the container header varies only by the design-name
	// string length.
	payload := map[string]int{}
	encoded := map[string]int{}
	for _, k := range accel.Kernels() {
		pkg, err := core.DevelopCL(k, netlist.TestDevice, 1)
		if err != nil {
			b.Fatal(err)
		}
		im, err := bitstream.Decode(pkg.Encoded)
		if err != nil {
			b.Fatal(err)
		}
		payload[k.Name()] = im.Frames() * im.Header.FrameWords * 4
		encoded[k.Name()] = len(pkg.Encoded)
	}
	first := -1
	for name, n := range payload {
		if first < 0 {
			first = n
		}
		if n != first {
			b.Fatalf("%s config payload %d bytes != %d — must be logic-independent", name, n, first)
		}
	}
	minE, maxE := 1<<62, 0
	for _, n := range encoded {
		if n < minE {
			minE = n
		}
		if n > maxE {
			maxE = n
		}
	}
	if maxE-minE > 128 {
		b.Fatalf("encoded sizes spread %d bytes — more than header naming can explain", maxE-minE)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = payload
	}
}

// --- Batched data path --------------------------------------------------------

// sealJob seals w's input under a pool's shared data key, as the pool's
// data owner does before submitting it.
func sealJob(t testing.TB, key []byte, w accel.Workload) core.SealedJob {
	t.Helper()
	sealed, err := cryptoutil.Seal(key, w.Input, []byte("job-input"))
	if err != nil {
		t.Fatal(err)
	}
	return core.SealedJob{Params: w.Params, Input: sealed}
}

// submit submits one sealed Conv job under opt: a batch of one.
func submit(s *sched.Scheduler, job core.SealedJob, opt sched.SubmitOptions) *sched.Future {
	return s.Submit("Conv", []core.SealedJob{job}, opt)[0]
}

// benchPool boots n Conv systems sharing one data key and returns them
// with the key.
func benchPool(b *testing.B, n int) ([]*core.System, []byte) {
	b.Helper()
	// A physical U200 keeps the host idle-blocked ~2 ms per Conv job
	// (DMA + fabric run); that idle time is what the scheduler overlaps
	// across boards.
	timing := core.FastTiming()
	timing.RealJobLatency = 2 * time.Millisecond
	systems := make([]*core.System, n)
	for i := range systems {
		sys, err := core.NewSystem(core.SystemConfig{
			Kernel: accel.Conv{},
			Seed:   int64(900 + i),
			DNA:    fpga.DNA(fmt.Sprintf("BENCH-%02d", i)),
			Timing: timing,
		})
		if err != nil {
			b.Fatal(err)
		}
		systems[i] = sys
	}
	key, err := sched.BootSharedParallel(systems)
	if err != nil {
		b.Fatal(err)
	}
	return systems, key
}

// batchedBenchJobs is the batch size one benchmark op carries: large enough
// to amortise the per-frame costs the batch exists to amortise, small
// enough that an op stays well under a chunk (409 jobs) and memory stays
// bounded at any benchtime.
const batchedBenchJobs = 64

// benchBatchedSingleDevice is the gate's subject: one 64-job sealed batch
// per op through one Submit on the same single-device pool the 6.5 MB/s
// unbatched baseline was measured on; MB/s is plaintext input bytes.
func benchBatchedSingleDevice(b *testing.B) {
	w := accel.GenConv(32, 32, 4, 1)
	systems, key := benchPool(b, 1)
	s := sched.New(sched.Config{})
	if err := s.Register(systems[0]); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	jobs := make([]core.SealedJob, batchedBenchJobs)
	for i := range jobs {
		jobs[i] = sealJob(b, key, w)
	}
	b.SetBytes(int64(batchedBenchJobs * len(w.Input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, f := range s.Submit("Conv", jobs, sched.SubmitOptions{Class: sched.ClassStandard}) {
			if _, err := f.Wait(); err != nil {
				b.Fatalf("job %d: %v", j, err)
			}
		}
	}
}

// TestBatchedThroughputGate is the bench-sched-gate acceptance gate: with
// SALUS_BENCH_SMOKE=1 it measures the batched single-device path and fails
// unless it clears 5x the 6.5 MB/s unbatched single-device baseline
// (DESIGN.md), and unless the pooled batch seal/open hot path runs
// allocation-free. Skipped in ordinary test runs — wall-clock assertions do
// not belong in `go test ./...`.
func TestBatchedThroughputGate(t *testing.T) {
	if os.Getenv("SALUS_BENCH_SMOKE") == "" {
		t.Skip("set SALUS_BENCH_SMOKE=1 (make bench-sched-gate) to run the batched throughput gate")
	}

	const baselineMBs = 6.5
	res := testing.Benchmark(benchBatchedSingleDevice)
	mbs := float64(res.Bytes) * float64(res.N) / res.T.Seconds() / 1e6
	t.Logf("batched single-device: %.1f MB/s (unbatched baseline %.1f MB/s, %.1fx)", mbs, baselineMBs, mbs/baselineMBs)
	if mbs < 5*baselineMBs {
		t.Fatalf("batched path moves %.1f MB/s, gate is 5x the %.1f MB/s baseline", mbs, baselineMBs)
	}

	// The zero-copy claim, pinned: sealing and opening a warm batch frame in
	// both directions must not allocate, nor a warm single-frame round trip.
	key := cryptoutil.RandomKey(16)
	host, err := channel.NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := channel.NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	txns := make([]channel.RegTxn, 24)
	for i := range txns {
		txns[i] = channel.RegTxn{Write: true, Addr: accel.RegParam0, Data: uint64(i)}
	}
	dst := make([]channel.RegTxn, 0, len(txns))
	ctr := uint64(0)
	roundTrip := func() {
		frame, err := host.SealRegBatchRequest(ctr, txns)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dev.OpenRegBatchRequest(ctr, frame, dst[:0]); err != nil {
			t.Fatal(err)
		}
		ctr++
	}
	roundTrip() // warm the sealer scratch
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("batch seal/open allocates %.0f objects/op, want 0", allocs)
	}
	// The single-job path frames its secure start through the same
	// Sealers: a warm single-frame round trip must not allocate either.
	single := func() {
		frame, err := host.SealRegRequest(ctr, txns[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dev.OpenRegRequest(ctr, frame); err != nil {
			t.Fatal(err)
		}
		frame, err = dev.SealRegResponse(ctr, channel.RegResult{Data: txns[0].Data, OK: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := host.OpenRegResponse(ctr, frame); err != nil {
			t.Fatal(err)
		}
		ctr++
	}
	single()
	if allocs := testing.AllocsPerRun(100, single); allocs != 0 {
		t.Fatalf("single-frame seal/open allocates %.0f objects/op, want 0", allocs)
	}
}
