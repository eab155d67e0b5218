package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"salus/internal/accel"
	"salus/internal/bitman"
	"salus/internal/bitstream"
	"salus/internal/client"
	"salus/internal/core"
	"salus/internal/cryptoutil"
	"salus/internal/fleet"
	"salus/internal/manufacturer"
	"salus/internal/netlist"
	"salus/internal/sched"
	"salus/internal/sgx"
	"salus/internal/smapp"
	"salus/internal/smlogic"
	"salus/internal/trace"
)

// paperBootSeconds is Figure 9's total CL booting time.
const paperBootSeconds = 18.8

// probeJob is the job every freshly booted system must answer correctly
// before its boot counts.
func probeJob(seed int64) accel.Workload { return accel.GenConv(8, 8, 2, seed) }

func checkProbe(out []byte, w accel.Workload) error {
	want, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		return err
	}
	if string(out) != string(want) {
		return fmt.Errorf("booted system's output differs from Kernel.Compute")
	}
	return nil
}

// --- boot-cold-u200 ----------------------------------------------------------

// bootCold boots a fresh U200-profile system per round under
// DefaultTiming with no caches: Figure 9.
type bootCold struct{ seed int64 }

func (b *bootCold) config() core.SystemConfig {
	return core.SystemConfig{Profile: netlist.U200, Kernel: accel.Conv{}, Seed: b.seed, Timing: core.DefaultTiming()}
}

func (b *bootCold) rounds(d time.Duration) ([]round, error) {
	var out []round
	probe := probeJob(b.seed)
	for start := time.Now(); len(out) == 0 || time.Since(start) < d; {
		runtime.GC()
		t0 := time.Now()
		sys, err := core.NewSystem(b.config())
		if err != nil {
			return nil, err
		}
		rd := round{setup: time.Since(t0), attempted: 1, jobs: 1}
		mem := startMem()
		t1 := time.Now()
		rep, err := sys.SecureBoot()
		boot := time.Since(t1)
		rd.mallocs, rd.bytes, _ = mem.stop()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wBootCold, err)
		}
		rd.calls, rd.rate = []time.Duration{boot}, 1/boot.Seconds()
		if !rep.Result.Attested {
			rd.failed, rd.invalid = 1, append(rd.invalid, "CL not attested after SecureBoot")
		} else if got, err := sys.RunJob(probe); err != nil {
			rd.failed, rd.invalid = 1, append(rd.invalid, err.Error())
		} else if err := checkProbe(got, probe); err != nil {
			rd.failed, rd.invalid = 1, append(rd.invalid, err.Error())
		}
		out = append(out, rd)
	}
	return out, nil
}

// bootStep is one Figure 3 step: wall time burned and virtual time charged.
type bootStep struct {
	name           string
	real, modelled time.Duration
}

// walkBoot runs the boot exactly as core.SecureBoot does, one exported
// step function at a time, timing each on the wall clock (real) and on the
// system's virtual clock (modelled). The owner's RA request transfer is
// charged with the quote verification, the other half of that round.
func walkBoot(sys *core.System, tr *tracer, call int) ([]bootStep, error) {
	var steps []bootStep
	step := func(name string, fn func() error) error {
		span, t0 := sys.Clock.StartSpan(), time.Now()
		err := fn()
		t1 := time.Now()
		tr.span(name, "boot", call, t0, t1)
		steps = append(steps, bootStep{name, t1.Sub(t0), span.Elapsed()})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	ver := client.New(sys.Expectations())
	nonce := ver.NewNonce()
	md := smapp.Metadata{Digest: sys.Package.Digest, Loc: sys.Package.Loc}
	request := sys.Clock.StartSpan()
	sys.Trace.Record(trace.PhaseNetwork, sys.Timing.WAN.Send(sys.Clock, 256+len(md.Loc.Path)))
	requestCharge := request.Elapsed()

	var quote sgx.Quote
	var dataPub []byte
	t0 := time.Now()
	for _, s := range []struct {
		name string
		fn   func() error
	}{
		{"userapp.local_attest", func() error {
			if err := sys.User.LocalAttestSM(); err != nil {
				return err
			}
			return sys.User.ForwardMetadata(md)
		}},
		{"smapp.fetch_device_key", sys.SM.FetchDeviceKey},
		{"smapp.deploy_cl", func() error { return sys.SM.DeployCL(sys.Package.Encoded) }},
		{"smapp.attest_cl", func() error {
			if err := sys.SM.AttestCL(); err != nil {
				return err
			}
			return sys.User.CollectCLResult()
		}},
		{"userapp.ra_response", func() (err error) {
			quote, err = sys.User.GenerateRAResponse(nonce, sys.Timing.UserQuoteGen)
			return err
		}},
		{"client.verify_quote", func() (err error) {
			dataPub, err = sys.VerifyQuote(ver, nonce, quote)
			return err
		}},
		{"client.provision_key", func() error { return sys.ProvisionKey(dataPub, cryptoutil.RandomKey(16)) }},
	} {
		if err := step(s.name, s.fn); err != nil {
			return nil, err
		}
	}
	tr.span("boot", "", call, t0, time.Now())
	for i := range steps {
		if steps[i].name == "client.verify_quote" {
			steps[i].modelled += requestCharge
		}
	}
	return steps, nil
}

// stepStats folds several boot walks into per-step medians.
func stepStats(walks [][]bootStep, vals map[string]float64) (realSum, modelledSum time.Duration) {
	if len(walks) == 0 {
		return 0, 0
	}
	for i, s := range walks[0] {
		var re, mo []float64
		for _, w := range walks {
			re = append(re, float64(w[i].real))
			mo = append(mo, float64(w[i].modelled))
		}
		r, m := time.Duration(median(re)), time.Duration(median(mo))
		vals[s.name+"_real_ms"], vals[s.name+"_modelled_ms"] = msOf(r), msOf(m)
		realSum += r
		modelledSum += m
	}
	return realSum, modelledSum
}

// modelConstants reports the parameters of the timing model, so a move of
// boot_modelled_s can be told apart from a change of the model itself.
func modelConstants(sys *core.System, modelled time.Duration, vals map[string]float64) {
	t := sys.Timing
	constant := t.SMQuoteGen + t.SMQuoteVerify + t.UserQuoteGen + t.UserQuoteVerify +
		sys.Trace.PhaseTotal(trace.PhaseNetwork) + sys.Trace.PhaseTotal(trace.PhaseCLDeployment)
	vals["model.constant_s"] = constant.Seconds()
	vals["model.tool_slowdown"] = t.ToolSlowdown
	vals["model.enclave_slowdown"] = t.EnclaveSlowdown
	vals["model.fig9_err_pct"] = (modelled.Seconds() - paperBootSeconds) / paperBootSeconds * 100
}

// bestOfRuns is how many times smapp's measureBest repeats a bitstream
// operation under a slowdown above 4 (DefaultTiming).
const bestOfRuns = 3

func (b *bootCold) traced(d time.Duration, tr *tracer) (map[string]float64, int, int, error) {
	vals := map[string]float64{}
	host := startHost()

	dev, _, err := timeMedian(d/10, 2, 5, func() error {
		_, err := core.DevelopCL(accel.Conv{}, netlist.U200, b.seed)
		return err
	})
	if err != nil {
		return nil, 0, 0, err
	}
	vals["core.develop_cl_ms"] = msOf(dev)

	// Untraced reference boots, then the step walks.
	var plain []float64
	var modelled []float64
	var last *core.System
	for start := time.Now(); len(plain) < 2 || time.Since(start) < d*3/10; {
		sys, err := core.NewSystem(b.config())
		if err != nil {
			return nil, 0, 0, err
		}
		t0 := time.Now()
		rep, err := sys.SecureBoot()
		if err != nil {
			return nil, 0, 0, err
		}
		plain = append(plain, float64(time.Since(t0)))
		modelled = append(modelled, float64(rep.Total))
	}
	var walks [][]bootStep
	var walked []float64
	for start := time.Now(); len(walks) < 2 || time.Since(start) < d*4/10; {
		sys, err := core.NewSystem(b.config())
		if err != nil {
			return nil, 0, 0, err
		}
		span, t0 := sys.Clock.StartSpan(), time.Now()
		steps, err := walkBoot(sys, tr, len(walks))
		if err != nil {
			return nil, 0, 0, err
		}
		walked = append(walked, float64(time.Since(t0)))
		var sum time.Duration
		for _, s := range steps {
			sum += s.modelled
		}
		if total := span.Elapsed(); sum != total {
			return nil, 0, 0, fmt.Errorf("modelled steps sum to %v, clock charged %v", sum, total)
		}
		got, err := sys.RunJob(probeJob(b.seed))
		if err != nil {
			return nil, 0, 0, err
		}
		if err := checkProbe(got, probeJob(b.seed)); err != nil {
			return nil, 0, 0, err
		}
		walks = append(walks, steps)
		last = sys
	}
	realSum, modelledSum := stepStats(walks, vals)
	bootReal := time.Duration(median(plain))
	vals["core.boot_real_ms"] = msOf(bootReal)
	vals["core.boot_modelled_s"] = time.Duration(median(modelled)).Seconds()
	vals["trace.overhead_share"] = (median(walked) - float64(bootReal)) / float64(bootReal)
	vals["trace.unattributed_share"] = math.Abs(float64(bootReal-realSum)) / float64(bootReal)
	modelConstants(last, modelledSum, vals)

	// Standalone bitstream operations on the same image the boot handles.
	encoded := last.Package.Encoded
	budget := d / 15
	digest, _, err := timeMedian(budget, 3, 20, func() error { cryptoutil.Digest(encoded); return nil })
	if err != nil {
		return nil, 0, 0, err
	}
	var manipulated []byte
	manip, _, err := timeMedian(budget, 3, 20, func() error {
		tool, err := bitman.Open(encoded)
		if err != nil {
			return err
		}
		if _, err := tool.ReadCell(last.Package.Loc, 0, smlogic.SecretsSize); err != nil {
			return err
		}
		if err := tool.Inject(last.Package.Loc, 0, make([]byte, smlogic.SecretsSize)); err != nil {
			return err
		}
		manipulated = tool.Serialize()
		return nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	devKey := cryptoutil.RandomKey(cryptoutil.DeviceKeySize)
	enc, _, err := timeMedian(budget, 3, 20, func() error {
		_, err := bitstream.Encrypt(manipulated, devKey, netlist.U200.Name)
		return err
	})
	if err != nil {
		return nil, 0, 0, err
	}
	vals["bitstream.digest_real_ms"] = msOf(digest)
	vals["bitman.manipulate_real_ms"] = msOf(manip)
	vals["bitstream.encrypt_real_ms"] = msOf(enc)
	vals["shell.load_cl_real_ms"] = vals["smapp.deploy_cl_real_ms"] - bestOfRuns*msOf(digest+manip+enc)

	boots := len(plain) + len(walks)
	host.finish(boots, vals)
	return vals, boots, 0, nil
}

// --- boot-fleet-warm ---------------------------------------------------------

// bootFleet boots an 8-board x 2-RP fleet in parallel with shared boot
// caches, adopts it, and hot-adds 4 sibling boards: 24 partitions keyed,
// one manipulation and one quote generated.
type bootFleet struct{ seed int64 }

const (
	fleetBoards   = 8
	fleetRPs      = 2
	fleetSiblings = 4
	fleetParts    = (fleetBoards + fleetSiblings) * fleetRPs
)

// fleetRun is one fleet boot sequence's timings and handles.
type fleetRun struct {
	spawn, boot, adopt, siblings time.Duration
	mgr                          *fleet.Manager
	key                          []byte
	mfr                          *manufacturer.Service
	host                         *sgx.Platform
	prepared                     *smapp.PreparedCache
	quotes                       *smapp.QuotePool
}

// bootOnce runs spawn -> BootSharedParallel -> Adopt -> 4 x AddSibling.
// The caller closes run.mgr.
func (b *bootFleet) bootOnce() (_ *fleetRun, err error) {
	run := &fleetRun{prepared: smapp.NewPreparedCache(), quotes: smapp.NewQuotePool()}
	defer func() {
		if err != nil && run.mgr != nil {
			run.mgr.Close()
		}
	}()
	t0 := time.Now()
	if run.mfr, err = manufacturer.New(); err != nil {
		return nil, err
	}
	if run.host, err = sgx.NewPlatform(run.mfr.Authority()); err != nil {
		return nil, err
	}
	run.mgr, err = fleet.New(fleet.Config{
		Kernel: accel.Conv{}, Seed: b.seed, Timing: core.DefaultTiming(), Profile: netlist.TestDevice,
		DNAPrefix: "WRM", RPsPerDevice: fleetRPs,
		Manufacturer: run.mfr, HostPlatform: run.host, Prepared: run.prepared, Quotes: run.quotes,
	})
	if err != nil {
		return nil, err
	}
	systems, err := run.mgr.SpawnN(fleetBoards)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if run.key, err = sched.BootSharedParallel(systems); err != nil {
		return nil, err
	}
	t2 := time.Now()
	for _, sys := range systems {
		if err := run.mgr.Adopt(sys); err != nil {
			return nil, err
		}
	}
	t3 := time.Now()
	for i := 0; i < fleetSiblings; i++ {
		if _, err := run.mgr.AddSibling(); err != nil {
			return nil, err
		}
	}
	t4 := time.Now()
	run.spawn, run.boot, run.adopt, run.siblings = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	return run, nil
}

// check verifies the warm-cache shape of the boot and that the fleet,
// siblings included, answers a sealed job correctly.
func (run *fleetRun) check(seed int64) error {
	if p := run.mgr.PreparedStats(); p.Manipulations != 1 || p.ManipulationHits != fleetParts-1 {
		return fmt.Errorf("prepared cache %+v, want 1 manipulation and %d hits", p, fleetParts-1)
	}
	if q := run.mgr.QuoteStats(); q.Generated != 1 || q.Reused != fleetParts-1 {
		return fmt.Errorf("quote pool %+v, want 1 generated and %d reused", q, fleetParts-1)
	}
	if n := run.mgr.Scheduler().DeviceCount(); n != fleetParts {
		return fmt.Errorf("%d partitions serving, want %d", n, fleetParts)
	}
	probe := probeJob(seed)
	var futs []*sched.Future
	for i := 0; i < fleetParts; i++ {
		sealed, err := cryptoutil.Seal(run.key, probe.Input, []byte("job-input"))
		if err != nil {
			return err
		}
		futs = append(futs, run.mgr.Scheduler().SubmitSealed("Conv", probe.Params, sealed))
	}
	for _, f := range futs {
		sealedOut, err := f.Wait()
		if err != nil {
			return err
		}
		out, err := cryptoutil.Open(run.key, sealedOut, []byte("job-output"))
		if err != nil {
			return err
		}
		if err := checkProbe(out, probe); err != nil {
			return err
		}
	}
	return nil
}

func (b *bootFleet) rounds(d time.Duration) ([]round, error) {
	var out []round
	for start := time.Now(); len(out) == 0 || time.Since(start) < d; {
		runtime.GC()
		baseline := runtime.NumGoroutine()
		mem := startMem()
		run, err := b.bootOnce()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wBootFleet, err)
		}
		rd := round{setup: run.spawn, attempted: 1, jobs: fleetParts}
		rd.mallocs, rd.bytes, _ = mem.stop()
		rd.calls = []time.Duration{run.boot}
		rd.rate = fleetParts / (run.boot + run.adopt + run.siblings).Seconds()
		if err := run.check(b.seed); err != nil {
			rd.failed, rd.invalid = 1, append(rd.invalid, err.Error())
		}
		run.mgr.Close()
		if err := settle(baseline); err != nil {
			rd.invalid = append(rd.invalid, err.Error())
		}
		out = append(out, rd)
	}
	return out, nil
}

func (b *bootFleet) traced(d time.Duration, tr *tracer) (map[string]float64, int, int, error) {
	vals := map[string]float64{}
	host := startHost()
	reg := startRegistry()
	var spawn, boot, adopt, sib []float64
	var walks [][]bootStep
	var modelled []float64
	var last *core.System
	iters := 0
	for start := time.Now(); iters < 3 || time.Since(start) < d; iters++ {
		t0 := time.Now()
		run, err := b.bootOnce()
		if err != nil {
			return nil, 0, 0, err
		}
		tr.span("fleet.boot", "", iters, t0, time.Now())
		spawn = append(spawn, msOf(run.spawn))
		boot = append(boot, msOf(run.boot))
		adopt = append(adopt, usOf(run.adopt)/(fleetBoards*fleetRPs))
		sib = append(sib, msOf(run.siblings)/fleetSiblings)
		if err := run.check(b.seed); err != nil {
			run.mgr.Close()
			return nil, 0, 0, err
		}
		// One more system on the fleet's platform and warm caches, walked
		// step by step: what a boot costs once the caches hit.
		sys, err := core.NewSystem(core.SystemConfig{
			Kernel: accel.Conv{}, Seed: b.seed, Timing: core.DefaultTiming(), Profile: netlist.TestDevice,
			DNA: "WRM-WALK", Manufacturer: run.mfr, HostPlatform: run.host, Prepared: run.prepared, Quotes: run.quotes,
		})
		if err != nil {
			run.mgr.Close()
			return nil, 0, 0, err
		}
		span := sys.Clock.StartSpan()
		steps, err := walkBoot(sys, tr, iters)
		run.mgr.Close()
		if err != nil {
			return nil, 0, 0, err
		}
		walks = append(walks, steps)
		modelled = append(modelled, float64(span.Elapsed()))
		last = sys
	}
	reg.stop()
	realSum, modelledSum := stepStats(walks, vals)
	vals["fleet.spawn_ms"] = median(spawn)
	vals["fleet.boot_parallel_ms"] = median(boot)
	vals["fleet.adopt_us"] = median(adopt)
	vals["fleet.add_sibling_ms"] = median(sib)
	vals["core.boot_real_ms"] = msOf(realSum)
	vals["core.boot_modelled_s"] = time.Duration(median(modelled)).Seconds()
	modelConstants(last, modelledSum, vals)
	delete(vals, "model.fig9_err_pct") // Figure 9 is the cold U200 boot, not this one
	// Boot-cache counts per fleet boot (the walked system adds one hit each).
	per := float64(iters)
	vals["smapp.manip_total"] = reg.counter("salus_smapp_manip_total") / per
	vals["smapp.manip_hits"] = reg.counter("salus_smapp_manip_hits_total") / per
	vals["smapp.enc_total"] = reg.counter("salus_smapp_enc_total") / per
	vals["smapp.enc_hits"] = reg.counter("salus_smapp_enc_hits_total") / per
	vals["smapp.quote_generated"] = reg.counter("salus_smapp_quote_generated_total") / per
	vals["smapp.quote_reused"] = reg.counter("salus_smapp_quote_reused_total") / per
	host.finish(iters*fleetParts, vals)
	return vals, iters, 0, nil
}
