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
	"crypto/rand"
	"os"
	"sync"
	"sync/atomic"
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
	"salus/internal/fleet"
	"salus/internal/fpga"
	"salus/internal/metrics"
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
// printed by cmd/salus-boot.
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
				if _, err := perfmodel.MeasureCPU(k, w, false); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(k.Name()+"/tee", func(b *testing.B) {
			b.SetBytes(int64(len(w.Input)))
			for i := 0; i < b.N; i++ {
				if _, err := perfmodel.MeasureCPU(k, w, true); err != nil {
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
			cryptoutil.HMAC256(key32, msg)
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

// --- Scheduler: multi-device aggregate throughput -----------------------------

// benchPool boots n Conv systems sharing one data key.
// submitW submits one plaintext workload under opt: a batch of one.
func submitW(s *sched.Scheduler, w accel.Workload, opt sched.SubmitOptions) *sched.Future {
	return s.Submit([]sched.Job{sched.PlainJob(w)}, opt)[0]
}

// submitWs submits plaintext workloads as one ClassStandard submission.
func submitWs(s *sched.Scheduler, ws []accel.Workload) []*sched.Future {
	jobs := make([]sched.Job, len(ws))
	for i, w := range ws {
		jobs[i] = sched.PlainJob(w)
	}
	return s.Submit(jobs, sched.SubmitOptions{Class: sched.ClassStandard})
}

func benchPool(b *testing.B, n int) []*core.System {
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
	if _, err := sched.BootShared(systems); err != nil {
		b.Fatal(err)
	}
	return systems
}

// BenchmarkSchedulerThroughput measures aggregate jobs/sec of the sched
// pool against a serial RunJob loop on one device (serial-baseline). The
// workload is large enough that per-job compute — kernel + AES-CTR —
// dominates dispatch, as on a real multi-board host. Jobs/op is 1, so
// ns/op is the per-job latency at full pipeline occupancy; compare
// serial-baseline ns/op to devices-N ns/op for the speedup.
func BenchmarkSchedulerThroughput(b *testing.B) {
	w := accel.GenConv(32, 32, 4, 1)

	b.Run("serial-baseline", func(b *testing.B) {
		sys := benchPool(b, 1)[0]
		b.SetBytes(int64(len(w.Input)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.RunJob(w); err != nil {
				b.Fatal(err)
			}
		}
	})

	runPool := func(b *testing.B, n int) {
		s := sched.New(sched.Config{})
		for _, sys := range benchPool(b, n) {
			if err := s.Register(sys); err != nil {
				b.Fatal(err)
			}
		}
		defer s.Close()
		b.SetBytes(int64(len(w.Input)))
		b.ResetTimer()
		futs := make([]*sched.Future, b.N)
		for i := range futs {
			futs[i] = submitW(s, w, sched.SubmitOptions{Class: sched.ClassStandard})
		}
		for i, f := range futs {
			if _, err := f.Wait(); err != nil {
				b.Fatalf("job %d: %v", i, err)
			}
		}
	}
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("devices-%d", n), func(b *testing.B) { runPool(b, n) })
	}
	// The observability acceptance gate: the same pool with the metrics
	// registry disabled. Compare devices-2 against this to price the
	// instrumentation on the job hot path (<3% is the budget).
	b.Run("devices-2-metrics-disabled", func(b *testing.B) {
		metrics.Default().SetEnabled(false)
		defer metrics.Default().SetEnabled(true)
		runPool(b, 2)
	})
}

// benchInjector is a switchable broken shell for the degraded-pool bench:
// once broken it corrupts every direct-channel frame, so jobs on its device
// fail with core.ErrDeviceFault while the secure register channel stays in
// sync (the device boots cleanly before the fault is switched on).
type benchInjector struct{ broken atomic.Bool }

func (f *benchInjector) OnLoad(data []byte) []byte  { return data }
func (f *benchInjector) OnResponse(b []byte) []byte { return b }
func (f *benchInjector) OnRequest(req []byte) []byte {
	if !f.broken.Load() {
		return req
	}
	switch channel.MsgType(req) {
	case channel.MsgDirectReg, channel.MsgMemWrite, channel.MsgMemRead:
		return []byte{0xFF}
	}
	return req
}

// BenchmarkSchedulerDegradedPool measures aggregate throughput of a pool
// with one permanently faulted device against the healthy pool one board
// smaller. The circuit breaker is what keeps the two close: without
// quarantine, least-loaded routing funnels jobs into the fast-failing
// board and every one of them burns a retry. Compare degraded-3 ns/op to
// healthy-2 ns/op — the gap is the cost of fault detection + re-dispatch.
func BenchmarkSchedulerDegradedPool(b *testing.B) {
	w := accel.GenConv(32, 32, 4, 1)

	run := func(b *testing.B, systems []*core.System) {
		s := sched.New(sched.Config{QuarantineAfter: 2})
		for _, sys := range systems {
			if err := s.Register(sys); err != nil {
				b.Fatal(err)
			}
		}
		defer s.Close()
		b.SetBytes(int64(len(w.Input)))
		b.ResetTimer()
		futs := make([]*sched.Future, b.N)
		for i := range futs {
			futs[i] = submitW(s, w, sched.SubmitOptions{Class: sched.ClassStandard})
		}
		for i, f := range futs {
			if _, err := f.Wait(); err != nil {
				b.Fatalf("job %d: %v", i, err)
			}
		}
	}

	b.Run("healthy-2", func(b *testing.B) {
		run(b, benchPool(b, 2))
	})

	b.Run("degraded-3-one-broken", func(b *testing.B) {
		inj := &benchInjector{}
		timing := core.FastTiming()
		timing.RealJobLatency = 2 * time.Millisecond
		systems := make([]*core.System, 3)
		for i := range systems {
			cfg := core.SystemConfig{
				Kernel: accel.Conv{},
				Seed:   int64(950 + i),
				DNA:    fpga.DNA(fmt.Sprintf("DEGR-%02d", i)),
				Timing: timing,
			}
			if i == 0 {
				cfg.Interceptor = inj
			}
			sys, err := core.NewSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			systems[i] = sys
		}
		if _, err := sched.BootShared(systems); err != nil {
			b.Fatal(err)
		}
		inj.broken.Store(true) // boots clean, then the board dies for good
		run(b, systems)
	})
}

// --- Batched data path --------------------------------------------------------

// batchedBenchJobs is the batch size one benchmark op carries: large enough
// to amortise the per-frame costs the batch exists to amortise, small
// enough that an op stays well under a chunk (409 jobs) and memory stays
// bounded at any benchtime.
const batchedBenchJobs = 64

// benchBatchedDevice runs one 64-job batch per op through one Submit on
// an n-device pool; MB/s is plaintext input bytes.
func benchBatchedDevice(b *testing.B, n int) {
	w := accel.GenConv(32, 32, 4, 1)
	s := sched.New(sched.Config{})
	for _, sys := range benchPool(b, n) {
		if err := s.Register(sys); err != nil {
			b.Fatal(err)
		}
	}
	defer s.Close()
	ws := make([]accel.Workload, batchedBenchJobs)
	for i := range ws {
		ws[i] = w
	}
	b.SetBytes(int64(batchedBenchJobs * len(w.Input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, f := range submitWs(s, ws) {
			if _, err := f.Wait(); err != nil {
				b.Fatalf("job %d: %v", j, err)
			}
		}
	}
}

// benchBatchedSingleDevice is the gate's subject: the batched path on the
// same single-device pool the 6.5 MB/s unbatched baseline was measured on.
func benchBatchedSingleDevice(b *testing.B) { benchBatchedDevice(b, 1) }

// BenchmarkBatchedThroughput is the batched-vs-unbatched comparison on
// identical pools and workloads: each op moves the same 64 jobs, once as 64
// Submit round trips (64 sealed register frames per job program, one DMA
// write and read per job) and once as one Submit of 64 (one sealed frame per
// chunk, pipelined DMA). ns/op and MB/s are directly comparable across the
// sub-benchmarks.
func BenchmarkBatchedThroughput(b *testing.B) {
	w := accel.GenConv(32, 32, 4, 1)

	b.Run("unbatched-1dev", func(b *testing.B) {
		s := sched.New(sched.Config{})
		if err := s.Register(benchPool(b, 1)[0]); err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		b.SetBytes(int64(batchedBenchJobs * len(w.Input)))
		b.ResetTimer()
		futs := make([]*sched.Future, batchedBenchJobs)
		for i := 0; i < b.N; i++ {
			for j := range futs {
				futs[j] = submitW(s, w, sched.SubmitOptions{Class: sched.ClassStandard})
			}
			for j, f := range futs {
				if _, err := f.Wait(); err != nil {
					b.Fatalf("job %d: %v", j, err)
				}
			}
		}
	})
	b.Run("batched-1dev", func(b *testing.B) { benchBatchedDevice(b, 1) })
	b.Run("batched-2dev", func(b *testing.B) { benchBatchedDevice(b, 2) })
}

// TestBatchedThroughputGate is the bench-sched acceptance gate: with
// SALUS_BENCH_SMOKE=1 it measures the batched single-device path and fails
// unless it clears 5x the 6.5 MB/s unbatched single-device baseline
// (RESULTS.md), and unless the pooled batch seal/open hot path runs
// allocation-free. Skipped in ordinary test runs — wall-clock assertions do
// not belong in `go test ./...`.
func TestBatchedThroughputGate(t *testing.T) {
	if os.Getenv("SALUS_BENCH_SMOKE") == "" {
		t.Skip("set SALUS_BENCH_SMOKE=1 (make bench-sched) to run the batched throughput gate")
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

// --- Elastic fleet -----------------------------------------------------------

// newBenchFleet assembles a fleet manager for the boot benchmarks.
func newBenchFleet(b *testing.B, timing core.Timing) *fleet.Manager {
	b.Helper()
	m, err := fleet.New(fleet.Config{
		Kernel:    accel.Conv{},
		DNAPrefix: "BFLT",
		Timing:    timing,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkFleetBoot compares booting 8 boards serially, in parallel
// without the shared caches, and through the fleet manager (parallel boot
// plus the prepared-bitstream cache and quote pool). RealBootLatency
// models the ~10 ms the host spends idle-blocked on the ICAP per board —
// the time parallel boot overlaps. The fleet variant also reports
// manipulations per 8-board boot: 1 means the toolchain ran once and the
// other seven boards hit the cache.
func BenchmarkFleetBoot(b *testing.B) {
	const k = 8
	timing := core.FastTiming()
	timing.RealBootLatency = 10 * time.Millisecond

	freshSystems := func(b *testing.B, gen int) []*core.System {
		systems := make([]*core.System, k)
		for i := range systems {
			sys, err := core.NewSystem(core.SystemConfig{
				Kernel: accel.Conv{},
				Seed:   1000,
				DNA:    fpga.DNA(fmt.Sprintf("BOOT-%03d-%02d", gen, i)),
				Timing: timing,
			})
			if err != nil {
				b.Fatal(err)
			}
			systems[i] = sys
		}
		return systems
	}

	b.Run("serial-8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			systems := freshSystems(b, i)
			b.StartTimer()
			if _, err := sched.BootShared(systems); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			systems := freshSystems(b, i)
			b.StartTimer()
			if _, err := sched.BootSharedParallel(systems); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fleet-parallel-cached-8", func(b *testing.B) {
		manips := 0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m := newBenchFleet(b, timing)
			b.StartTimer()
			if err := m.BootFleet(k); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			manips += m.PreparedStats().Manipulations
			m.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(manips)/float64(b.N), "manips/boot")
	})
}

// BenchmarkFleetHotAdd measures one grow-then-shrink cycle against a pool
// that is busy serving the whole time: every Add boots through the warm
// prepared cache while jobs keep flowing, and every Remove drains without
// losing one.
func BenchmarkFleetHotAdd(b *testing.B) {
	timing := core.FastTiming()
	timing.RealJobLatency = time.Millisecond
	m := newBenchFleet(b, timing)
	defer m.Close()
	if err := m.BootFleet(2); err != nil {
		b.Fatal(err)
	}

	w := accel.GenConv(32, 32, 4, 1)
	stop := make(chan struct{})
	var pumpErrs atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := submitW(m.Scheduler(), w, sched.SubmitOptions{Class: sched.ClassStandard}).Wait(); err != nil {
					pumpErrs.Add(1)
					return
				}
			}
		}()
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dna, err := m.Add()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Remove(dna); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	if n := pumpErrs.Load(); n > 0 {
		b.Fatalf("%d background jobs failed during scaling", n)
	}
}
