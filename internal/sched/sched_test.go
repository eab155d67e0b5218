package sched

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/channel"
	"salus/internal/core"
	"salus/internal/cryptoutil"
	"salus/internal/fpga"
)

// newPool boots n systems all deploying kernel k, sharing one data key.
func newPool(t testing.TB, n int, k accel.Kernel) ([]*core.System, []byte) {
	t.Helper()
	systems := make([]*core.System, n)
	for i := range systems {
		sys, err := core.NewSystem(core.SystemConfig{
			Kernel: k,
			Seed:   int64(300 + i),
			DNA:    fpga.DNA(fmt.Sprintf("POOL-%s-%02d", k.Name(), i)),
			Timing: core.FastTiming(),
		})
		if err != nil {
			t.Fatal(err)
		}
		systems[i] = sys
	}
	key, err := BootSharedParallel(systems)
	if err != nil {
		t.Fatal(err)
	}
	return systems, key
}

func newScheduler(t testing.TB, systems []*core.System) *Scheduler {
	t.Helper()
	s := New(Config{})
	for _, sys := range systems {
		if err := s.Register(sys); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(s.Close)
	return s
}

// std is the contract the migrated option-less call sites submit under.
var std = SubmitOptions{Class: ClassStandard}

// sealJob seals a workload's input under the pool's data key, as its data
// owner does before submitting it.
func sealJob(key []byte, w accel.Workload) core.SealedJob {
	sealed, err := cryptoutil.Seal(key, w.Input, []byte("job-input"))
	if err != nil {
		panic(err)
	}
	return core.SealedJob{Params: w.Params, Input: sealed}
}

// submitWs seals workloads of one kernel under key and submits them as one
// Submit call.
func submitWs(s *Scheduler, key []byte, ws []accel.Workload, opt SubmitOptions) []*Future {
	jobs := make([]core.SealedJob, len(ws))
	for i, w := range ws {
		jobs[i] = sealJob(key, w)
	}
	return s.Submit(ws[0].Kernel.Name(), jobs, opt)
}

// submitWOpts seals and submits one workload: a batch of one.
func submitWOpts(s *Scheduler, key []byte, w accel.Workload, opt SubmitOptions) *Future {
	return submitWs(s, key, []accel.Workload{w}, opt)[0]
}

func submitW(s *Scheduler, key []byte, w accel.Workload) *Future { return submitWOpts(s, key, w, std) }

// waitOpen waits for f and opens its sealed output under key.
func waitOpen(key []byte, f *Future) ([]byte, error) {
	out, err := f.Wait()
	if err != nil {
		return nil, err
	}
	return cryptoutil.Open(key, out, []byte("job-output"))
}

func TestSubmitFansOutAndResultsMatchReference(t *testing.T) {
	systems, key := newPool(t, 3, accel.Conv{})
	s := newScheduler(t, systems)

	const jobs = 12
	futs := make([]*Future, jobs)
	want := make([][]byte, jobs)
	for i := range futs {
		w := accel.GenConv(4, 4, 2, int64(i))
		ref, err := w.Kernel.Compute(w.Params, w.Input)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ref
		futs[i] = submitW(s, key, w)
	}
	for i, f := range futs {
		out, err := waitOpen(key, f)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if !bytes.Equal(out, want[i]) {
			t.Errorf("job %d: scheduler output diverges from reference", i)
		}
	}

	var total uint64
	for _, ds := range s.Stats() {
		if ds.Failed != 0 {
			t.Errorf("device %s reports %d failed jobs", ds.DNA, ds.Failed)
		}
		total += ds.Completed
	}
	if total != jobs {
		t.Errorf("pool completed %d jobs, want %d", total, jobs)
	}
}

func TestSubmitRoutesByKernel(t *testing.T) {
	conv, convKey := newPool(t, 1, accel.Conv{})
	affine, affineKey := newPool(t, 1, accel.Affine{})
	s := newScheduler(t, append(conv, affine...))

	wc := accel.GenConv(4, 4, 1, 1)
	wa := accel.GenAffine(16, 16, 2)
	oc, err := waitOpen(convKey, submitW(s, convKey, wc))
	if err != nil {
		t.Fatal(err)
	}
	oa, err := waitOpen(affineKey, submitW(s, affineKey, wa))
	if err != nil {
		t.Fatal(err)
	}
	refC, _ := wc.Kernel.Compute(wc.Params, wc.Input)
	refA, _ := wa.Kernel.Compute(wa.Params, wa.Input)
	if !bytes.Equal(oc, refC) || !bytes.Equal(oa, refA) {
		t.Error("kernel-routed outputs diverge from references")
	}
	for _, ds := range s.Stats() {
		if ds.Completed != 1 {
			t.Errorf("device %s (%s) completed %d jobs, want exactly 1", ds.DNA, ds.Kernel, ds.Completed)
		}
	}
}

func TestSubmitUnknownKernelFailsFast(t *testing.T) {
	systems, key := newPool(t, 1, accel.Conv{})
	s := newScheduler(t, systems)

	w := accel.GenAffine(8, 8, 1) // no Affine device registered
	if _, err := submitW(s, key, w).Wait(); err == nil || !strings.Contains(err.Error(), "no registered device") {
		t.Errorf("err = %v, want no-registered-device", err)
	}
	if _, err := s.Submit("", []core.SealedJob{{}}, std)[0].Wait(); err == nil {
		t.Error("submission naming no kernel accepted")
	}
}

func TestSubmitSealedRunsOnAnyPooledDevice(t *testing.T) {
	systems, key := newPool(t, 3, accel.Conv{})
	s := newScheduler(t, systems)

	const jobs = 9
	futs := make([]*Future, jobs)
	want := make([][]byte, jobs)
	for i := range futs {
		w := accel.GenConv(4, 4, 1, int64(40+i))
		ref, err := w.Kernel.Compute(w.Params, w.Input)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ref
		sealed, err := cryptoutil.Seal(key, w.Input, []byte("job-input"))
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = s.SubmitSealed("Conv", w.Params, sealed)
	}
	for i, f := range futs {
		sealedOut, err := f.Wait()
		if err != nil {
			t.Fatalf("sealed job %d: %v", i, err)
		}
		out, err := cryptoutil.Open(key, sealedOut, []byte("job-output"))
		if err != nil {
			t.Fatalf("sealed job %d result does not open under the shared key: %v", i, err)
		}
		if !bytes.Equal(out, want[i]) {
			t.Errorf("sealed job %d output diverges", i)
		}
	}
	// Shared key means load-based routing: with 9 jobs over 3 devices under
	// queue backpressure, no single device may have run them all... but a
	// fast worker legitimately can. Assert only the invariant: every
	// completion is accounted for and none failed.
	var total uint64
	for _, ds := range s.Stats() {
		total += ds.Completed
		if ds.Failed != 0 {
			t.Errorf("device %s failed %d sealed jobs", ds.DNA, ds.Failed)
		}
	}
	if total != jobs {
		t.Errorf("completed %d, want %d", total, jobs)
	}
}

func TestRegisterRequiresBoot(t *testing.T) {
	sys, err := core.NewSystem(core.SystemConfig{Kernel: accel.Conv{}, Seed: 1, Timing: core.FastTiming()})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	defer s.Close()
	if err := s.Register(sys); err == nil {
		t.Error("unbooted system registered")
	}
	if err := s.Register(nil); err == nil {
		t.Error("nil system registered")
	}
}

// TestPipelineStagesRegister: the two stages of a render-then-warp
// pipeline, each a booted board of its own with its own kernel, register
// with one scheduler side by side.
func TestPipelineStagesRegister(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	var systems []*core.System
	for i, k := range []accel.Kernel{accel.Rendering{}, accel.Affine{}} {
		sys, err := core.NewSystem(core.SystemConfig{
			Kernel: k, Seed: int64(100 + i), DNA: fpga.DNA(fmt.Sprintf("PIPE-%02d", i)), Timing: core.FastTiming(),
		})
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys)
	}
	key, err := BootSharedParallel(systems)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range systems {
		if err := s.Register(sys); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.Stats()); got != 2 {
		t.Fatalf("registered %d devices, want 2", got)
	}
	// Each stage kernel is individually schedulable.
	w := accel.GenRendering(32, 5)
	if _, err := submitW(s, key, w).Wait(); err != nil {
		t.Errorf("pipeline-stage device rejected job: %v", err)
	}
}

func TestCloseDrainsQueuedJobs(t *testing.T) {
	systems, key := newPool(t, 2, accel.Conv{})
	s := New(Config{QueueDepth: 8})
	for _, sys := range systems {
		if err := s.Register(sys); err != nil {
			t.Fatal(err)
		}
	}
	futs := make([]*Future, 8)
	for i := range futs {
		futs[i] = submitW(s, key, accel.GenConv(4, 4, 1, int64(i)))
	}
	s.Close()
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Errorf("queued job %d dropped at close: %v", i, err)
		}
	}
	if _, err := submitW(s, key, accel.GenConv(4, 4, 1, 99)).Wait(); err == nil {
		t.Error("submit after close accepted")
	}
	s.Close() // idempotent
}

func TestConcurrentSubmitters(t *testing.T) {
	systems, key := newPool(t, 2, accel.Conv{})
	s := newScheduler(t, systems)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				w := accel.GenConv(4, 4, 1, int64(g*100+i))
				ref, _ := w.Kernel.Compute(w.Params, w.Input)
				out, err := waitOpen(key, submitW(s, key, w))
				if err != nil {
					errs <- fmt.Errorf("submitter %d job %d: %w", g, i, err)
					return
				}
				if !bytes.Equal(out, ref) {
					errs <- fmt.Errorf("submitter %d job %d: output diverges", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// --- Failure injection --------------------------------------------------------

// faultInjector is a switchable broken shell: once Break()ed it corrupts
// every direct-channel frame (DMA, direct registers) so jobs on its device
// fail with core.ErrDeviceFault. Secure-channel frames pass untouched —
// the register-channel counters stay in sync, so a Heal()ed device
// genuinely recovers, exactly like a board whose PCIe link flapped.
type faultInjector struct{ broken, readsOnly atomic.Bool }

func (f *faultInjector) Break() { f.broken.Store(true) }
func (f *faultInjector) Heal()  { f.broken.Store(false) }

// BreakReads corrupts only DMA read-back: register programs and input
// writes go through, so a delivered batch fails job by job at result
// read-back instead of as a whole.
func (f *faultInjector) BreakReads() {
	f.readsOnly.Store(true)
	f.Break()
}

func (f *faultInjector) OnLoad(data []byte) []byte  { return data }
func (f *faultInjector) OnResponse(b []byte) []byte { return b }
func (f *faultInjector) OnRequest(req []byte) []byte {
	if !f.broken.Load() {
		return req
	}
	switch channel.MsgType(req) {
	case channel.MsgDirectReg, channel.MsgMemWrite:
		if f.readsOnly.Load() {
			return req
		}
		return []byte{0xFF}
	case channel.MsgMemRead:
		return []byte{0xFF}
	}
	return req
}

// newFaultyPool boots n Conv systems sharing one key; device 0 carries a
// faultInjector (harmless until Break is called).
func newFaultyPool(t testing.TB, n int, latency time.Duration) ([]*core.System, []byte, *faultInjector) {
	t.Helper()
	inj := &faultInjector{}
	timing := core.FastTiming()
	timing.RealJobLatency = latency
	systems := make([]*core.System, n)
	for i := range systems {
		cfg := core.SystemConfig{
			Kernel: accel.Conv{},
			Seed:   int64(700 + i),
			DNA:    fpga.DNA(fmt.Sprintf("FAULT-%02d", i)),
			Timing: timing,
		}
		if i == 0 {
			cfg.Interceptor = inj
		}
		sys, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		systems[i] = sys
	}
	key, err := BootSharedParallel(systems)
	if err != nil {
		t.Fatal(err)
	}
	return systems, key, inj
}

func findStats(t *testing.T, s *Scheduler, dna fpga.DNA) DeviceStats {
	t.Helper()
	for _, ds := range s.Stats() {
		if ds.DNA == dna {
			return ds
		}
	}
	t.Fatalf("no stats for device %s", dna)
	return DeviceStats{}
}

func TestDeviceBrokenMidRunIsQuarantinedAndJobsRedispatch(t *testing.T) {
	systems, key, inj := newFaultyPool(t, 3, 2*time.Millisecond)
	s := New(Config{QueueDepth: 4, QuarantineAfter: 2, QuarantineBase: time.Minute})
	for _, sys := range systems {
		if err := s.Register(sys); err != nil {
			t.Fatal(err)
		}
	}
	defer s.Close()
	sick := systems[0].Device.DNA()

	// Warm phase: the soon-to-fail device completes real work first.
	for i := 0; i < 6; i++ {
		if _, err := submitW(s, key, accel.GenConv(4, 4, 1, int64(i))).Wait(); err != nil {
			t.Fatalf("warm job %d: %v", i, err)
		}
	}

	// Break the device while a stream of jobs is in flight: anything it
	// holds — including the job mid-execution — must fail over.
	const jobs = 24
	futs := make([]*Future, jobs)
	for i := range futs {
		futs[i] = submitW(s, key, accel.GenConv(4, 4, 1, int64(100+i)))
		if i == 2 {
			inj.Break()
		}
	}
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Errorf("job %d lost to a single sick device: %v", i, err)
		}
	}

	ds := findStats(t, s, sick)
	if !ds.Quarantined {
		t.Errorf("sick device not quarantined: %+v", ds)
	}
	if ds.Failed == 0 || ds.Retried == 0 {
		t.Errorf("sick device stats show no redispatched faults: %+v", ds)
	}
	var completed uint64
	for _, d := range s.Stats() {
		completed += d.Completed
	}
	if completed != jobs+6 {
		t.Errorf("pool completed %d jobs, want %d", completed, jobs+6)
	}
}

func TestThroughputWithOneDeadDeviceWithinQuarterOfHealthyBaseline(t *testing.T) {
	// Acceptance: a 3-device pool with one permanently failing device must
	// deliver aggregate throughput within 25% of a healthy 2-device pool,
	// with every submitted future resolving.
	const jobs = 48
	run := func(n int, breakOne bool) time.Duration {
		systems, key, inj := newFaultyPool(t, n, 4*time.Millisecond)
		s := New(Config{QueueDepth: 8, QuarantineAfter: 2, QuarantineBase: time.Minute})
		for _, sys := range systems {
			if err := s.Register(sys); err != nil {
				t.Fatal(err)
			}
		}
		defer s.Close()
		if breakOne {
			inj.Break()
		}
		w := accel.GenConv(4, 4, 1, 7)
		start := time.Now()
		futs := make([]*Future, jobs)
		for i := range futs {
			futs[i] = submitW(s, key, w)
		}
		for i, f := range futs {
			if _, err := f.Wait(); err != nil {
				t.Fatalf("n=%d broken=%v: job %d did not resolve cleanly: %v", n, breakOne, i, err)
			}
		}
		return time.Since(start)
	}

	healthy := run(2, false) // the (N-1)-device healthy baseline
	degraded := run(3, true)
	if limit := healthy + healthy/4; degraded > limit {
		t.Errorf("degraded 3-device pool took %v, healthy 2-device baseline %v (limit %v): failure amplification",
			degraded, healthy, limit)
	}
}

func TestQuarantinedDeviceIsProbedAndReadmitted(t *testing.T) {
	systems, key, inj := newFaultyPool(t, 2, 0)
	s := New(Config{QuarantineAfter: 1, QuarantineBase: 20 * time.Millisecond, QuarantineMax: 50 * time.Millisecond})
	for _, sys := range systems {
		if err := s.Register(sys); err != nil {
			t.Fatal(err)
		}
	}
	defer s.Close()
	sick := systems[0].Device.DNA()

	inj.Break()
	w := accel.GenConv(4, 4, 1, 3)
	for i := 0; i < 8 && !findStats(t, s, sick).Quarantined; i++ {
		if _, err := submitW(s, key, w).Wait(); err != nil {
			t.Fatalf("job during breakage should have failed over: %v", err)
		}
	}
	if !findStats(t, s, sick).Quarantined {
		t.Fatal("broken device never quarantined")
	}
	healthyCompleted := findStats(t, s, sick).Completed

	// Heal the board; after the quarantine window the next pick sends it a
	// probe job and a success readmits it.
	inj.Heal()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := submitW(s, key, w).Wait(); err != nil {
			t.Fatalf("job after heal: %v", err)
		}
		ds := findStats(t, s, sick)
		if !ds.Quarantined && ds.Completed > healthyCompleted {
			break // readmitted and serving again
		}
		if time.Now().After(deadline) {
			t.Fatalf("healed device never readmitted: %+v", ds)
		}
		//lint:allow test-sleep poll interval inside a deadline-bounded readmission loop; the sleep only paces probes
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTerminalRejectionsAreNotRetriedOrQuarantined(t *testing.T) {
	systems, _, _ := newFaultyPool(t, 2, 0)
	s := New(Config{QuarantineAfter: 1})
	for _, sys := range systems {
		if err := s.Register(sys); err != nil {
			t.Fatal(err)
		}
	}
	defer s.Close()

	// A sealed input that fails authentication was rejected deliberately:
	// no other device could do better, so no retry, no health penalty.
	_, err := s.SubmitSealed("Conv", [4]uint64{4, 4, 1}, []byte("not a sealed blob")).Wait()
	if err == nil {
		t.Fatal("garbage sealed input accepted")
	}
	if Retryable(err) {
		t.Errorf("sealed-input rejection classified retryable: %v", err)
	}
	var failed, retried uint64
	for _, ds := range s.Stats() {
		failed += ds.Failed
		retried += ds.Retried
		if ds.Quarantined {
			t.Errorf("device %s quarantined by a deliberate rejection", ds.DNA)
		}
	}
	if failed != 1 || retried != 0 {
		t.Errorf("failed=%d retried=%d, want exactly one terminal failure and zero retries", failed, retried)
	}
}

func TestPickSpreadsTiesRoundRobin(t *testing.T) {
	systems, key := newPool(t, 3, accel.Conv{})
	s := newScheduler(t, systems)

	// Strictly sequential jobs on an idle pool: every queue is empty at
	// pick time, so only the tie-break decides. Least-loaded alone would
	// send all six to one device.
	for i := 0; i < 6; i++ {
		if _, err := submitW(s, key, accel.GenConv(4, 4, 1, int64(i))).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for _, ds := range s.Stats() {
		if ds.Completed != 2 {
			t.Errorf("device %s completed %d of 6 jobs over 3 idle devices, want 2 (tie-break skew)", ds.DNA, ds.Completed)
		}
	}
}

func TestBackpressuredSubmitDoesNotBlockRegister(t *testing.T) {
	const jobLatency = 400 * time.Millisecond
	systems, key, _ := newFaultyPool(t, 2, jobLatency)
	s := New(Config{QueueDepth: 1})
	if err := s.Register(systems[0]); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Saturate the single device: one job running (400 ms), one queued
	// (Queued counts both), and a third submitter parked in blocking
	// admission waiting for queue space.
	w := accel.GenConv(4, 4, 1, 5)
	futs := make(chan *Future, 3)
	for i := 0; i < 3; i++ {
		go func() { futs <- submitW(s, key, w) }()
	}
	reserveDeadline := time.Now().Add(5 * time.Second)
	for findStats(t, s, systems[0].Device.DNA()).Queued < 2 {
		if time.Now().After(reserveDeadline) {
			t.Fatal("submissions never filled the queue")
		}
		//lint:allow test-sleep poll interval inside a deadline-bounded queue-fill loop; the sleep only paces probes
		time.Sleep(time.Millisecond)
	}
	//lint:allow test-sleep settling margin after the observed queue state: the third submitter parks in admission, which no observable stat exposes
	time.Sleep(10 * time.Millisecond)

	// Register must not wait behind the blocked admission: it has to
	// return well before the running job's 400 ms completes (which is what
	// frees a queue slot).
	done := make(chan error, 1)
	go func() { done <- s.Register(systems[1]) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(jobLatency / 2):
		t.Fatal("Register blocked behind a backpressured Submit")
	}
	for i := 0; i < 3; i++ {
		if _, err := (<-futs).Wait(); err != nil {
			t.Errorf("backpressured job %d: %v", i, err)
		}
	}
}

func TestBootSharedKeyLength(t *testing.T) {
	systems, key := newPool(t, 2, accel.Conv{})
	if len(key) != 16 {
		t.Fatalf("shared key length %d", len(key))
	}
	for i, sys := range systems {
		if !sys.Booted() {
			t.Errorf("device %d not booted", i)
		}
	}
}
