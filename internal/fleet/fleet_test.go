package fleet

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/channel"
	"salus/internal/core"
	"salus/internal/cryptoutil"
	"salus/internal/fpga"
	"salus/internal/sched"
	"salus/internal/shell"
	"salus/internal/trace"
)

func newManager(t testing.TB, cfg Config) *Manager {
	t.Helper()
	if cfg.Kernel == nil {
		cfg.Kernel = accel.Conv{}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// submitW seals one workload under key and submits it to the fleet's
// scheduler.
func submitW(m *Manager, key []byte, w accel.Workload) *sched.Future {
	sealed, err := cryptoutil.Seal(key, w.Input, []byte("job-input"))
	if err != nil {
		panic(err)
	}
	return m.Scheduler().Submit(w.Kernel.Name(), []core.SealedJob{{Params: w.Params, Input: sealed}}, sched.SubmitOptions{Class: sched.ClassStandard})[0]
}

// boot is the data owner's in-process boot of k boards, the path
// federation.BuildLocal takes: spawn them, attest every chain and provision
// one fresh key into the enclaves (sched.BootSharedParallel), then Adopt.
// It returns the key, which the test holds as the owner; the manager never
// sees it.
func boot(t testing.TB, m *Manager, k int) []byte {
	t.Helper()
	systems, err := m.SpawnN(k)
	if err != nil {
		t.Fatal(err)
	}
	key, err := sched.BootSharedParallel(systems)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range systems {
		if err := m.Adopt(sys); err != nil {
			t.Fatal(err)
		}
	}
	return key
}

// runJob runs one job sealed under the owner's key and checks the opened
// output against the kernel.
func runJob(t testing.TB, m *Manager, key []byte, seed int64) {
	t.Helper()
	w := accel.GenConv(4, 4, 1, seed)
	ref, _ := w.Kernel.Compute(w.Params, w.Input)
	out, err := submitW(m, key, w).Wait()
	if err == nil {
		out, err = cryptoutil.Open(key, out, []byte("job-output"))
	}
	if err != nil {
		t.Fatalf("job: %v", err)
	}
	if !bytes.Equal(out, ref) {
		t.Fatal("fleet output diverges from reference")
	}
}

// TestFleetBootSharesOneManipulationAndQuote is the cache acceptance test:
// across a K-device parallel boot the manipulation toolchain and the SM
// quote exchange run exactly once, while the per-device encryption — the
// only genuinely per-board step — runs K times.
func TestFleetBootSharesOneManipulationAndQuote(t *testing.T) {
	// A singleton fleet provides the per-boot baseline sample counts (a
	// phase may record several samples per boot — synthetic DCAP charge
	// plus measured in-enclave work).
	solo := newManager(t, Config{DNAPrefix: "SOLO"})
	boot(t, solo, 1)
	soloQuoteGen := solo.BootTrace().Count(trace.PhaseSMQuoteGen)
	soloManip := solo.BootTrace().Count(trace.PhaseBitManipulation)
	soloDeploy := solo.BootTrace().Count(trace.PhaseCLDeployment)
	if soloQuoteGen == 0 || soloManip == 0 || soloDeploy == 0 {
		t.Fatalf("baseline boot recorded no samples (quoteGen=%d manip=%d deploy=%d)",
			soloQuoteGen, soloManip, soloDeploy)
	}

	const k = 4
	m := newManager(t, Config{})
	key := boot(t, m, k)
	if got := len(m.Members()); got != k {
		t.Fatalf("fleet has %d members, want %d", got, k)
	}

	ps := m.PreparedStats()
	if ps.Manipulations != 1 || ps.ManipulationHits != k-1 {
		t.Errorf("manipulations = %d cold / %d hits, want 1 / %d", ps.Manipulations, ps.ManipulationHits, k-1)
	}
	if ps.Encryptions != k || ps.EncryptionHits != 0 {
		t.Errorf("encryptions = %d cold / %d hits, want %d / 0", ps.Encryptions, ps.EncryptionHits, k)
	}
	qs := m.QuoteStats()
	if qs.Generated != 1 || qs.Reused != k-1 {
		t.Errorf("quotes = %d generated / %d reused, want 1 / %d", qs.Generated, qs.Reused, k-1)
	}
	// The merged fleet boot trace tells the same story: manipulation and
	// quote generation were charged once for the whole fleet (the same
	// sample count as one boot, not K times it), while deployment — a real
	// per-board step — scales with K.
	bt := m.BootTrace()
	if got := bt.Count(trace.PhaseBitManipulation); got != soloManip {
		t.Errorf("merged trace records %d manipulation samples, want %d (one boot's worth)", got, soloManip)
	}
	if got := bt.Count(trace.PhaseSMQuoteGen); got != soloQuoteGen {
		t.Errorf("merged trace records %d SM quote-gen samples, want %d (one boot's worth)", got, soloQuoteGen)
	}
	if got := bt.Count(trace.PhaseCLDeployment); got != k*soloDeploy {
		t.Errorf("merged trace records %d deployment samples, want %d", got, k*soloDeploy)
	}

	for i := 0; i < 2*k; i++ {
		runJob(t, m, key, int64(i))
	}
}

// TestHotAddWhileServing grows the fleet mid-stream: no job is lost, the
// new board's boot hits the prepared cache, and it joins the stats without
// a restart.
func TestHotAddWhileServing(t *testing.T) {
	timing := core.FastTiming()
	timing.RealJobLatency = time.Millisecond
	m := newManager(t, Config{Timing: timing})
	key := boot(t, m, 2)

	const jobs = 40
	futs := make([]*sched.Future, jobs)
	var wg sync.WaitGroup
	halfway := make(chan struct{}) // closed once half the jobs are submitted
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range futs {
			futs[i] = submitW(m, key, accel.GenConv(4, 4, 1, int64(i)))
			if i == jobs/2 {
				close(halfway)
			}
		}
	}()

	<-halfway // the add lands mid-stream, deterministically
	before := m.PreparedStats()
	dna, err := m.Add()
	if err != nil {
		t.Fatalf("hot add: %v", err)
	}
	wg.Wait()
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Errorf("job %d lost across the hot add: %v", i, err)
		}
	}

	after := m.PreparedStats()
	if after.Manipulations != before.Manipulations {
		t.Errorf("hot add re-ran the manipulation toolchain (%d → %d)", before.Manipulations, after.Manipulations)
	}
	if after.ManipulationHits != before.ManipulationHits+1 {
		t.Errorf("hot add missed the prepared cache (%d → %d hits)", before.ManipulationHits, after.ManipulationHits)
	}
	if len(m.Members()) != 3 || m.System(dna) == nil {
		t.Error("hot-added board missing from membership")
	}
	found := false
	for _, ds := range m.Stats() {
		if ds.DNA == dna {
			found = true
		}
	}
	if !found {
		t.Error("hot-added board missing from scheduler stats")
	}
	runJob(t, m, key, 99)
}

// TestAddSiblingHandsKeyOverLocally exercises the no-owner-roundtrip grow
// path: the new board's user enclave receives the data key from an
// attested sibling enclave over local attestation, and immediately
// computes correct results on sealed inputs.
func TestAddSiblingHandsKeyOverLocally(t *testing.T) {
	m := newManager(t, Config{})
	key := boot(t, m, 1)
	dna, err := m.Add()
	if err != nil {
		t.Fatal(err)
	}
	sys := m.System(dna)
	if sys == nil || !sys.Booted() {
		t.Fatal("sibling-booted board not a booted member")
	}
	// The hand-off is enclave-to-enclave: the host never learned the key
	// for the sibling, yet jobs routed anywhere in the fleet succeed.
	for i := 0; i < 4; i++ {
		runJob(t, m, key, int64(i))
	}
	if got := m.BootTrace().Count(trace.PhaseLocalAttest); got == 0 {
		t.Error("sibling hand-off recorded no local-attestation charge")
	}
}

// TestSiblingOnlyFleetAdoptsExternallyBootedMembers drives the gateway
// shape: systems are spawned unbooted, booted and provisioned by the data
// owner (here in process, see boot), adopted, and later growth uses the
// sibling hand-off because the manager never holds the key
// (TestNoHostObjectKeepsTheOwnersKey walks it).
func TestSiblingOnlyFleetAdoptsExternallyBootedMembers(t *testing.T) {
	m := newManager(t, Config{})
	key := boot(t, m, 2)
	if _, err := m.Add(); err != nil {
		t.Fatalf("hot add: %v", err)
	}
	if got := len(m.Members()); got != 3 {
		t.Fatalf("fleet has %d members, want 3", got)
	}
	runJob(t, m, key, 7)
}

// breaker is the switchable broken shell from the scheduler tests: once
// tripped it corrupts every direct-channel frame so jobs fault, while
// secure-channel frames pass and the device can genuinely heal.
type breaker struct{ broken atomic.Bool }

func (b *breaker) Break() { b.broken.Store(true) }

func (b *breaker) OnLoad(data []byte) []byte  { return data }
func (b *breaker) OnResponse(p []byte) []byte { return p }
func (b *breaker) OnRequest(req []byte) []byte {
	if !b.broken.Load() {
		return req
	}
	switch channel.MsgType(req) {
	case channel.MsgDirectReg, channel.MsgMemWrite, channel.MsgMemRead:
		return []byte{0xFF}
	}
	return req
}

// TestAutoReplacePermanentlyQuarantinedBoard is the elasticity acceptance
// test: a board that dies permanently is detected, replaced by a freshly
// booted one, and Stats reflects the new membership — all without a
// restart and without losing a single accepted job.
func TestAutoReplacePermanentlyQuarantinedBoard(t *testing.T) {
	inj := &breaker{}
	var replacedOld, replacedNew fpga.DNA
	var replaceMu sync.Mutex
	m := newManager(t, Config{
		DNAPrefix: "ELAS",
		Scheduler: sched.Config{
			QuarantineAfter: 1,
			QuarantineBase:  time.Millisecond,
			QuarantineMax:   time.Millisecond,
			PermanentAfter:  2,
		},
		Intercept: func(dna fpga.DNA) shell.Interceptor {
			if dna == "ELAS-00" {
				return inj
			}
			return nil
		},
		OnReplace: func(old, new fpga.DNA) {
			replaceMu.Lock()
			replacedOld, replacedNew = old, new
			replaceMu.Unlock()
		},
	})
	key := boot(t, m, 2)

	inj.Break()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var sick sched.DeviceStats
		for _, ds := range m.Stats() {
			if ds.DNA == "ELAS-00" {
				sick = ds
			}
		}
		if sick.Permanent {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never latched permanently")
		}
		runJob(t, m, key, 1) // redispatch keeps every job alive while ELAS-00 dies
		//lint:allow test-sleep poll interval inside a deadline-bounded breaker-latch loop; the sleep only paces probe jobs
		time.Sleep(2 * time.Millisecond)
	}

	replaced, err := m.AutoReplaceOnce()
	if err != nil {
		t.Fatalf("auto replace: %v", err)
	}
	newDNA, ok := replaced["ELAS-00"]
	if !ok {
		t.Fatalf("dead board not replaced; sweep returned %v", replaced)
	}
	replaceMu.Lock()
	if replacedOld != "ELAS-00" || replacedNew != newDNA {
		t.Errorf("OnReplace saw %s→%s, want ELAS-00→%s", replacedOld, replacedNew, newDNA)
	}
	replaceMu.Unlock()

	// Membership reflects the swap without any restart.
	if m.System("ELAS-00") != nil {
		t.Error("dead board still a member")
	}
	if m.System(newDNA) == nil {
		t.Error("replacement not a member")
	}
	var dnas []fpga.DNA
	for _, ds := range m.Stats() {
		dnas = append(dnas, ds.DNA)
		if ds.DNA == "ELAS-00" {
			t.Error("dead board still in scheduler stats")
		}
	}
	if len(dnas) != 2 {
		t.Errorf("scheduler serves %v, want exactly 2 devices", dnas)
	}
	// A second sweep is a no-op.
	if again, err := m.AutoReplaceOnce(); err != nil || len(again) != 0 {
		t.Errorf("idle sweep replaced %v (err %v)", again, err)
	}
	for i := 0; i < 6; i++ {
		runJob(t, m, key, int64(i))
	}
}

// TestStartAutoReplaceBackgroundLoop lets the ticker loop do the swap.
func TestStartAutoReplaceBackgroundLoop(t *testing.T) {
	inj := &breaker{}
	m := newManager(t, Config{
		DNAPrefix: "LOOP",
		Scheduler: sched.Config{
			QuarantineAfter: 1,
			QuarantineBase:  time.Millisecond,
			QuarantineMax:   time.Millisecond,
			PermanentAfter:  2,
		},
		Intercept: func(dna fpga.DNA) shell.Interceptor {
			if dna == "LOOP-00" {
				return inj
			}
			return nil
		},
	})
	key := boot(t, m, 2)
	m.StartAutoReplace(2 * time.Millisecond)

	inj.Break()
	deadline := time.Now().Add(10 * time.Second)
	for m.System("LOOP-00") != nil {
		if time.Now().After(deadline) {
			t.Fatal("background loop never replaced the dead board")
		}
		runJob(t, m, key, 1)
		//lint:allow test-sleep poll interval inside a deadline-bounded replacement loop; the sleep only paces probe jobs
		time.Sleep(2 * time.Millisecond)
	}
	if got := len(m.Members()); got != 2 {
		t.Errorf("fleet has %d members after background replace, want 2", got)
	}
}

// TestCapacityBounds: MaxDevices refuses growth, MinDevices refuses
// shrink, and Replace is exempt from the ceiling (add-first swap).
func TestCapacityBounds(t *testing.T) {
	m := newManager(t, Config{MinDevices: 2, MaxDevices: 2, DNAPrefix: "CAP"})
	key := boot(t, m, 2)
	if _, err := m.Add(); err == nil {
		t.Error("Add beyond MaxDevices succeeded")
	}
	if err := m.Remove("CAP-00", time.Second); err == nil {
		t.Error("Remove below MinDevices succeeded")
	}
	if got := len(m.Members()); got != 2 {
		t.Fatalf("bounds violated: %d members", got)
	}
	newDNA, err := m.Replace("CAP-00")
	if err != nil {
		t.Fatalf("replace at capacity: %v", err)
	}
	if got := len(m.Members()); got != 2 {
		t.Errorf("replace changed fleet size to %d", got)
	}
	if m.System(newDNA) == nil || m.System("CAP-00") != nil {
		t.Error("replace membership swap incomplete")
	}
	runJob(t, m, key, 5)
}

// TestDrainThenRemoveMember covers the manager-level decommission path:
// Remove runs the member's queue dry, then reclaims it.
func TestDrainThenRemoveMember(t *testing.T) {
	m := newManager(t, Config{DNAPrefix: "RM"})
	key := boot(t, m, 3)
	sys := m.System("RM-01")
	if err := m.Remove("RM-01", time.Second); err != nil {
		t.Fatal(err)
	}
	if !sys.Reclaimed() {
		t.Error("Remove left the board's system unreclaimed")
	}
	if len(m.Members()) != 2 {
		t.Error("membership not updated after Remove")
	}
	if err := m.Remove("RM-01", time.Second); !errors.Is(err, sched.ErrUnknownDevice) {
		t.Errorf("double remove: err = %v, want ErrUnknownDevice", err)
	}
	if _, err := m.Replace("RM-01"); !errors.Is(err, sched.ErrUnknownDevice) {
		t.Errorf("replace of removed device: err = %v, want ErrUnknownDevice", err)
	}
	runJob(t, m, key, 11)
}

// TestMultiRPFleetLifecycle carves each board into two reconfigurable
// partitions and walks the whole lifecycle at board granularity: boot,
// serve, hot add (the sibling hand-off keys every RP), and remove — asserting
// throughout that the scheduler sees K×R partitions while membership,
// capacity bounds, and Min/MaxDevices keep counting boards.
func TestMultiRPFleetLifecycle(t *testing.T) {
	m := newManager(t, Config{DNAPrefix: "SPAT", RPsPerDevice: 2, MinDevices: 1, MaxDevices: 3})
	if m.RPsPerDevice() != 2 {
		t.Fatalf("RPsPerDevice = %d, want 2", m.RPsPerDevice())
	}
	key := boot(t, m, 2)
	if got := len(m.Members()); got != 2 {
		t.Fatalf("fleet has %d boards, want 2", got)
	}
	if got := len(m.Stats()); got != 4 {
		t.Fatalf("scheduler serves %d partitions, want 4 (2 boards x 2 RPs)", got)
	}
	if got := len(m.Systems("SPAT-00")); got != 2 {
		t.Fatalf("board SPAT-00 holds %d systems, want 2", got)
	}
	if sys := m.System("SPAT-00"); sys == nil || sys.Partition() != 0 {
		t.Fatal("System should return the board's partition 0")
	}
	for i := 0; i < 8; i++ {
		runJob(t, m, key, int64(i))
	}

	// Hot add boots BOTH partitions of the new board, each keyed by a
	// sibling enclave; capacity counts the board once.
	dna, err := m.Add()
	if err != nil {
		t.Fatalf("hot add: %v", err)
	}
	if got := len(m.Systems(dna)); got != 2 {
		t.Fatalf("hot-added board holds %d systems, want 2", got)
	}
	if got := len(m.Stats()); got != 6 {
		t.Fatalf("scheduler serves %d partitions after add, want 6", got)
	}
	if _, err := m.Add(); err == nil {
		t.Error("Add beyond MaxDevices boards succeeded")
	}
	runJob(t, m, key, 42)

	// Remove decommissions the whole board: both RPs leave the scheduler.
	if err := m.Remove("SPAT-01", time.Second); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if got := len(m.Members()); got != 2 {
		t.Fatalf("fleet has %d boards after remove, want 2", got)
	}
	for _, ds := range m.Stats() {
		if ds.DNA == "SPAT-01" {
			t.Errorf("removed board still serves rp%d", ds.RP)
		}
	}
	if got := len(m.Stats()); got != 4 {
		t.Fatalf("scheduler serves %d partitions after remove, want 4", got)
	}
	runJob(t, m, key, 43)
}

// TestMultiRPSiblingHandoffKeysEveryPartition drives the no-owner grow path
// on a spatially shared fleet: every partition of the added board receives
// the data key from an attested sibling enclave, never from the host.
func TestMultiRPSiblingHandoffKeysEveryPartition(t *testing.T) {
	m := newManager(t, Config{DNAPrefix: "SIB", RPsPerDevice: 2})
	key := boot(t, m, 1)
	dna, err := m.Add()
	if err != nil {
		t.Fatal(err)
	}
	systems := m.Systems(dna)
	if len(systems) != 2 {
		t.Fatalf("sibling-added board holds %d systems, want 2", len(systems))
	}
	for _, sys := range systems {
		if !sys.Booted() {
			t.Errorf("partition rp%d not booted after sibling hand-off", sys.Partition())
		}
	}
	for i := 0; i < 6; i++ {
		runJob(t, m, key, int64(i))
	}
}

// TestReplaceKeysFromAQuarantinedDonor: when every member is sick, the
// replacement still takes the data key from one of them. The hand-off runs
// enclave to enclave, past the broken shell, so the scheduler's Donor falls
// back to a quarantined donor rather than leave the fleet unable to heal.
func TestReplaceKeysFromAQuarantinedDonor(t *testing.T) {
	inj := &breaker{}
	m := newManager(t, Config{
		DNAPrefix: "LONE",
		Scheduler: sched.Config{
			QuarantineAfter: 1,
			QuarantineBase:  time.Millisecond,
			QuarantineMax:   time.Millisecond,
			PermanentAfter:  2,
		},
		Intercept: func(dna fpga.DNA) shell.Interceptor {
			if dna == "LONE-00" {
				return inj
			}
			return nil
		},
	})
	key := boot(t, m, 1)
	inj.Break()
	deadline := time.Now().Add(10 * time.Second)
	for !m.Stats()[0].Permanent {
		if time.Now().After(deadline) {
			t.Fatal("breaker never latched permanently")
		}
		submitW(m, key, accel.GenConv(4, 4, 1, 1)).Wait() //nolint:errcheck // the only board is dying
	}
	replaced, err := m.AutoReplaceOnce()
	if err != nil {
		t.Fatalf("auto replace with only a quarantined donor: %v", err)
	}
	newDNA := replaced["LONE-00"]
	if newDNA == "" || m.System(newDNA) == nil || m.System("LONE-00") != nil {
		t.Fatalf("lone sick board not replaced: %v", replaced)
	}
	runJob(t, m, key, 3)
}

// TestManagerValidation covers constructor and close-state errors.
func TestManagerValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without a kernel succeeded")
	}
	m, err := New(Config{Kernel: accel.Conv{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add(); err == nil {
		t.Error("Add without a booted donor succeeded")
	}
	m.Close()
	if _, err := m.SpawnN(1); err == nil {
		t.Error("SpawnN after Close succeeded")
	}
	if err := m.Adopt(nil); err == nil {
		t.Error("Adopt(nil) succeeded")
	}
}

// TestFleetPartitionCostsWhatItTouches: the fleet develops its CL once and
// hands the same package to every partition it spawns, hot-added siblings
// included, and a booted partition does not pin a device-memory window it
// never used.
func TestFleetPartitionCostsWhatItTouches(t *testing.T) {
	const boards, rps = 2, 2
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	m := newManager(t, Config{DNAPrefix: "COST", RPsPerDevice: rps})
	boot(t, m, boards)
	runtime.ReadMemStats(&m1)
	perRP := float64(m1.TotalAlloc-m0.TotalAlloc) / (boards * rps) / (1 << 20)
	t.Logf("%d-board × %d-RP fleet: %.2f MiB allocated per partition", boards, rps, perRP)
	if perRP >= 4 {
		t.Errorf("booting a %d-board × %d-RP fleet allocated %.2f MiB per partition, want < 4", boards, rps, perRP)
	}

	if _, err := m.Add(); err != nil {
		t.Fatal(err)
	}
	pkgs := map[*core.CLPackage]bool{}
	for _, dna := range m.Members() {
		for _, sys := range m.Systems(dna) {
			pkgs[sys.Package] = true
		}
	}
	if len(pkgs) != 1 {
		t.Errorf("the fleet's partitions deploy %d CL packages, want the one it developed", len(pkgs))
	}
}
