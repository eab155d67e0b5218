package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/core"
	"salus/internal/fpga"
	"salus/internal/metrics"
)

// watchOrder resolves names into order as their futures complete; the
// device worker is sequential and test service times are tens of
// milliseconds, so completion order is execution order.
func watchOrder(order chan<- string, name string, f *Future) {
	go func() {
		_, _ = f.Wait()
		order <- name
	}()
}

// waitInService returns once the pool's only device holds no waiting
// entry: its worker has taken everything submitted so far into service.
// The ordering tests submit their contenders only after this, so the
// worker's next pick sees all of them at once.
func waitInService(t *testing.T, s *Scheduler) {
	t.Helper()
	s.mu.RLock()
	q := s.devices[0].q
	s.mu.RUnlock()
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		q.mu.Lock()
		waiting := q.entries
		q.mu.Unlock()
		if waiting == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the blocker was never taken into service")
		}
	}
}

func indexOf(seq []string, name string) int {
	for i, s := range seq {
		if s == name {
			return i
		}
	}
	return -1
}

// TestStrictPriorityAcrossBands: with a device busy, a later critical
// submission executes before earlier standard and batch submissions.
func TestStrictPriorityAcrossBands(t *testing.T) {
	// The blocker must outlast the submissions behind it: 40 ms was seen to
	// lose that race on a loaded 2-CPU runner.
	systems, _, _ := newFaultyPool(t, 1, 120*time.Millisecond)
	s := newScheduler(t, systems)

	w := accel.GenConv(4, 4, 1, 7)
	order := make(chan string, 4)
	watchOrder(order, "blocker", submitW(s, w))
	waitInService(t, s)
	watchOrder(order, "batch", submitWOpts(s, w, SubmitOptions{Class: ClassBatch}))
	watchOrder(order, "standard", submitWOpts(s, w, SubmitOptions{Class: ClassStandard}))
	watchOrder(order, "critical", submitWOpts(s, w, SubmitOptions{Class: ClassCritical}))

	seq := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		seq = append(seq, <-order)
	}
	c, st, b := indexOf(seq, "critical"), indexOf(seq, "standard"), indexOf(seq, "batch")
	if !(c < st && st < b) {
		t.Fatalf("completion order %v: want critical before standard before batch", seq)
	}
}

// TestEDFOrderWithinBand: inside one band the earliest deadline runs
// first, and deadline-free jobs run last in submission order.
func TestEDFOrderWithinBand(t *testing.T) {
	systems, _, _ := newFaultyPool(t, 1, 120*time.Millisecond) // see TestStrictPriorityAcrossBands
	s := newScheduler(t, systems)

	w := accel.GenConv(4, 4, 1, 9)
	now := time.Now()
	order := make(chan string, 5)
	watchOrder(order, "blocker", submitW(s, w))
	waitInService(t, s)
	// Submitted deliberately out of deadline order; all far enough out to
	// never expire during the test.
	watchOrder(order, "d8s", submitWOpts(s, w, SubmitOptions{Class: ClassStandard, Deadline: now.Add(8 * time.Second)}))
	watchOrder(order, "d2s", submitWOpts(s, w, SubmitOptions{Class: ClassStandard, Deadline: now.Add(2 * time.Second)}))
	watchOrder(order, "none", submitW(s, w))
	watchOrder(order, "d5s", submitWOpts(s, w, SubmitOptions{Class: ClassStandard, Deadline: now.Add(5 * time.Second)}))

	seq := make([]string, 0, 5)
	for i := 0; i < 5; i++ {
		seq = append(seq, <-order)
	}
	want := []string{"d2s", "d5s", "d8s", "none"}
	got := make([]string, 0, 4)
	for _, name := range seq {
		if name != "blocker" {
			got = append(got, name)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EDF completion order %v, want %v", got, want)
		}
	}
}

// TestBatchClassFastRejectWhenFull: when every routable queue is full,
// ClassBatch work resolves with ErrOverloaded immediately instead of
// blocking for a slot.
func TestBatchClassFastRejectWhenFull(t *testing.T) {
	systems, _, _ := newFaultyPool(t, 1, 150*time.Millisecond)
	s := New(Config{QueueDepth: 1})
	if err := s.Register(systems[0]); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	w := accel.GenConv(4, 4, 1, 3)
	blocker := submitW(s, w)
	filler := submitW(s, w)
	deadline := time.Now().Add(5 * time.Second)
	for findStats(t, s, systems[0].Device.DNA()).Queued < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		//lint:allow test-sleep poll interval inside a deadline-bounded queue-fill loop; the sleep only paces probes
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	if _, err := submitWOpts(s, w, SubmitOptions{Class: ClassBatch}).Wait(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("batch-class submit on full pool: got %v, want ErrOverloaded", err)
	}
	for i, f := range submitWs(s, convWorkloads(3), SubmitOptions{Class: ClassBatch}) {
		if _, err := f.Wait(); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("batched job %d on full pool: got %v, want ErrOverloaded", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("fast reject took %v — it blocked for queue space", elapsed)
	}
	for _, f := range []*Future{blocker, filler} {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExpiredJobNeverExecutes: a job whose deadline has passed resolves
// with ErrDeadlineExceeded without ever running — whether it expired
// before admission or while waiting in a queue.
func TestExpiredJobNeverExecutes(t *testing.T) {
	systems, _, _ := newFaultyPool(t, 1, 60*time.Millisecond)
	s := newScheduler(t, systems)
	dna := systems[0].Device.DNA()
	w := accel.GenConv(4, 4, 1, 4)

	// Already expired at submission: shed before routing.
	start := time.Now()
	if _, err := submitWOpts(s, w, SubmitOptions{Deadline: start.Add(-time.Millisecond)}).Wait(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("pre-expired submit: got %v, want ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("pre-expired submit took %v, want immediate shed", elapsed)
	}
	if ds := findStats(t, s, dna); ds.Completed != 0 {
		t.Fatalf("device ran %d jobs, the expired job must never execute", ds.Completed)
	}

	// Expires while queued behind a 60 ms job: the worker sheds it at
	// pickup instead of running it.
	blocker := submitW(s, w)
	//lint:allow test-sleep generous margin for the worker to dequeue the blocker; failure mode is a weaker assertion, not a flake
	time.Sleep(10 * time.Millisecond) // let the worker pick the blocker up
	doomed := submitWOpts(s, w, SubmitOptions{Deadline: time.Now().Add(20 * time.Millisecond)})
	if _, err := doomed.Wait(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("queue-expired job: got %v, want ErrDeadlineExceeded", err)
	}
	if _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	ds := findStats(t, s, dna)
	if ds.Completed != 1 {
		t.Fatalf("device completed %d jobs, want only the blocker", ds.Completed)
	}
	if ds.Shed != 1 {
		t.Fatalf("device shed %d jobs, want 1", ds.Shed)
	}
}

// TestLowClassFloodDoesNotStarveCritical is the priority-inversion
// regression: a saturating ClassBatch flood keeps every queue full, yet
// critical jobs must keep completing at near-uncontended latency because
// they jump the band order. FIFO queues of this depth would impose
// ~128 ms of head-of-line wait per critical job; the bound here is well
// under that and far above uncontended jitter.
func TestLowClassFloodDoesNotStarveCritical(t *testing.T) {
	const service = 2 * time.Millisecond
	systems, _, _ := newFaultyPool(t, 2, service)
	s := New(Config{QueueDepth: 64})
	for _, sys := range systems {
		if err := s.Register(sys); err != nil {
			t.Fatal(err)
		}
	}
	defer s.Close()

	w := accel.GenConv(4, 4, 1, 11)
	stop := make(chan struct{})
	var flood sync.WaitGroup
	for g := 0; g < 4; g++ {
		flood.Add(1)
		go func() {
			defer flood.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				f := submitWOpts(s, w, SubmitOptions{Class: ClassBatch})
				if _, err := f.WaitTimeout(0); errors.Is(err, ErrWaitTimeout) {
					continue // enqueued; keep the pressure up
				} else if err != nil {
					//lint:allow test-sleep backoff after a fast-reject keeps the flood generator from spinning a core; pressure, not timing, is asserted
					time.Sleep(500 * time.Microsecond) // fast-rejected: pool is full
				}
			}
		}()
	}

	var worst time.Duration
	for i := 0; i < 20; i++ {
		start := time.Now()
		if _, err := submitWOpts(s, w, SubmitOptions{Class: ClassCritical}).Wait(); err != nil {
			t.Fatalf("critical job %d under flood: %v", i, err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	close(stop)
	flood.Wait()

	if worst > 60*time.Millisecond {
		t.Fatalf("worst critical latency under batch flood = %v, want well under the FIFO backlog", worst)
	}
}

// TestSubmitDoesNotHangOnWedgedDeviceWithHealthySibling is the hang
// repro for the old blocking `d.jobs <- j` send: a wedged device with a
// full queue must not strand submissions while a healthy sibling has
// capacity — admission re-routes instead of parking on one device.
func TestSubmitDoesNotHangOnWedgedDeviceWithHealthySibling(t *testing.T) {
	const wedge = 1200 * time.Millisecond
	slowTiming := core.FastTiming()
	slowTiming.RealJobLatency = wedge
	slow, err := core.NewSystem(core.SystemConfig{
		Kernel: accel.Conv{},
		Seed:   801,
		DNA:    fpga.DNA("WEDGE-SLOW"),
		Timing: slowTiming,
	})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := core.NewSystem(core.SystemConfig{
		Kernel: accel.Conv{},
		Seed:   802,
		DNA:    fpga.DNA("WEDGE-FAST"),
		Timing: core.FastTiming(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BootShared([]*core.System{slow, fast}); err != nil {
		t.Fatal(err)
	}

	s := New(Config{QueueDepth: 1})
	defer s.Close()
	if err := s.Register(slow); err != nil {
		t.Fatal(err)
	}

	// Wedge the only device: one job executing for 1.2 s, one filling its
	// single queue slot.
	w := accel.GenConv(4, 4, 1, 6)
	submitW(s, w)
	submitW(s, w)
	deadline := time.Now().Add(5 * time.Second)
	for findStats(t, s, slow.Device.DNA()).Queued < 2 {
		if time.Now().After(deadline) {
			t.Fatal("wedged device never saturated")
		}
		//lint:allow test-sleep poll interval inside a deadline-bounded saturation loop; the sleep only paces probes
		time.Sleep(time.Millisecond)
	}

	if err := s.Register(fast); err != nil {
		t.Fatal(err)
	}
	futs := make(chan *Future, 16)
	for i := 0; i < 16; i++ {
		go func() { futs <- submitW(s, w) }()
	}
	// Every flood job must finish long before the wedged device frees a
	// slot — the old code parked submitters on its full queue forever.
	floodDeadline := time.After(700 * time.Millisecond)
	for i := 0; i < 16; i++ {
		select {
		case f := <-futs:
			if _, err := f.Wait(); err != nil {
				t.Fatalf("flood job %d: %v", i, err)
			}
		case <-floodDeadline:
			t.Fatalf("flood stalled behind the wedged device: %d of 16 jobs done", i)
		}
	}
}

// TestQueueDepthGaugeReturnsToZeroAfterChurn is the accounting
// invariant: after successes, faults with redispatch, whole-batch
// retries, terminal dead-ends, deadline sheds, overload rejections, and
// a drain+remove, the global salus_sched_queue_depth gauge lands back
// exactly where it started.
func TestQueueDepthGaugeReturnsToZeroAfterChurn(t *testing.T) {
	before := metrics.Default().Snapshot()

	// Pool A: one faulty device among three — faults redispatch and
	// succeed elsewhere.
	systemsA, _, injA := newFaultyPool(t, 3, 0)
	sa := New(Config{QuarantineAfter: 2})
	for _, sys := range systemsA {
		if err := sa.Register(sys); err != nil {
			t.Fatal(err)
		}
	}
	var futs []*Future
	w := accel.GenConv(4, 4, 1, 13)
	for i := 0; i < 12; i++ {
		futs = append(futs, submitW(sa, w))
	}
	injA.Break()
	for i := 0; i < 12; i++ {
		futs = append(futs, submitW(sa, w))
	}
	futs = append(futs, submitWs(sa, convWorkloads(8), std)...)
	injA.Heal()
	for i := 0; i < 6; i++ {
		futs = append(futs, submitW(sa, w))
	}
	// Deadline sheds at admission.
	for i := 0; i < 3; i++ {
		futs = append(futs, submitWOpts(sa, w, SubmitOptions{Deadline: time.Now().Add(-time.Second)}))
	}

	// Pool B: every device faulty — retries exhaust into terminal
	// failures and whole-batch dead ends.
	systemsB, _, injB := newFaultyPool(t, 1, 0)
	sb := New(Config{MaxRetries: 1})
	if err := sb.Register(systemsB[0]); err != nil {
		t.Fatal(err)
	}
	injB.Break()
	for i := 0; i < 4; i++ {
		futs = append(futs, submitW(sb, w))
	}
	futs = append(futs, submitWs(sb, convWorkloads(6), std)...)

	for _, f := range futs {
		_, _ = f.Wait() // errors expected for the fault/shed cohorts
	}

	// Drain + remove churn on pool A, then shut both pools down.
	if _, err := sa.Remove(systemsA[2].Device.DNA(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	sa.Close()
	sb.Close()

	after := metrics.Default().Snapshot()
	if d := after.Gauges["salus_sched_queue_depth"] - before.Gauges["salus_sched_queue_depth"]; d != 0 {
		t.Fatalf("queue depth gauge leaked %+d after churn, want exactly 0", d)
	}
}

var _ = fmt.Sprintf // keep fmt imported if helpers change
