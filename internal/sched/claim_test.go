package sched

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/core"
	"salus/internal/cryptoutil"
	"salus/internal/metrics"
)

// workerless adds sys to s as a shared partition, like Register, but starts
// no worker: what its queue holds runs only when a waiter claims it, until
// startWorker.
func workerless(s *Scheduler, sys *core.System) *device {
	d := &device{
		s: s, sys: sys, rp: sys.Partition(),
		rpGauge: metrics.NewRegistry().Gauge("rp_queue_depth"),
		q:       newPQueue(s.cfg.QueueDepth, nil),
	}
	s.mu.Lock()
	s.devices = append(s.devices, d)
	s.mu.Unlock()
	return d
}

func (d *device) startWorker() {
	d.s.wg.Add(1)
	go d.run()
}

// waitFor runs Wait on its own goroutine and fails the test if it has not
// returned within five seconds.
func waitFor(t *testing.T, f *Future) ([]byte, error) {
	t.Helper()
	ch := make(chan result, 1)
	go func() {
		out, err := f.Wait()
		ch <- result{out, err}
	}()
	select {
	case r := <-ch:
		return r.out, r.err
	case <-time.After(5 * time.Second):
		t.Fatal("Wait never returned")
		return nil, nil
	}
}

func (f *Future) channel() chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.done
}

// resolved reports whether f has resolved without making its channel, as
// Done would.
func resolved(f *Future) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.e == nil
}

// checkConv opens a job's sealed output under key and checks it against
// the kernel's reference.
func checkConv(t *testing.T, key []byte, w accel.Workload, out []byte, err error) {
	t.Helper()
	want, werr := w.Kernel.Compute(w.Params, w.Input)
	if werr != nil {
		t.Fatal(werr)
	}
	if err == nil {
		out, err = cryptoutil.Open(key, out, []byte("job-output"))
	}
	if err != nil || !bytes.Equal(out, want) {
		t.Fatalf("job: %v, output matches reference: %v", err, bytes.Equal(out, want))
	}
}

// TestWaitRunsLoneJobOnIdlePartition: a waited lone job that is the only
// entry on an idle partition runs on the waiter — here there is no worker
// to run it at all — and resolves without ever making its wake-up channel.
func TestWaitRunsLoneJobOnIdlePartition(t *testing.T) {
	systems, key := newPool(t, 1, accel.Conv{})
	s := New(Config{})
	t.Cleanup(s.Close)
	d := workerless(s, systems[0])
	w := accel.GenConv(8, 8, 2, 1)
	f := submitW(s, key, w)
	out, err := waitFor(t, f)
	checkConv(t, key, w, out, err)
	if f.channel() != nil {
		t.Error("the waiter-run job made a wake-up channel")
	}
	if n := d.completed.Load(); n != 1 {
		t.Errorf("device completed %d jobs, want 1", n)
	}
	if n := d.queued.Load(); n != 0 {
		t.Errorf("device still counts %d queued jobs", n)
	}
}

type result struct {
	out []byte
	err error
}

// parkedWait starts Wait on f and returns its result channel once the
// waiter has parked on the future's channel, failing the test if the
// waiter ran the job instead.
func parkedWait(t *testing.T, f *Future, why string) <-chan result {
	t.Helper()
	waited := make(chan result, 1)
	go func() {
		out, err := f.Wait()
		waited <- result{out, err}
	}()
	for deadline := time.Now().Add(5 * time.Second); f.channel() == nil && !resolved(f); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the waiter neither parked nor ran its job")
		}
	}
	if resolved(f) {
		t.Fatalf("the waiter ran %s", why)
	}
	return waited
}

// TestClaimNeverJumpsQueuedEntry: a waiter whose job sits behind another
// entry does not claim it; the worker runs the earlier critical entry first.
func TestClaimNeverJumpsQueuedEntry(t *testing.T) {
	systems, key := newPool(t, 1, accel.Conv{})
	s := New(Config{})
	t.Cleanup(s.Close)
	d := workerless(s, systems[0])
	wc, ws := accel.GenConv(8, 8, 2, 1), accel.GenConv(8, 8, 2, 2)
	crit := submitWOpts(s, key, wc, SubmitOptions{Class: ClassCritical})
	waited := parkedWait(t, submitW(s, key, ws), "its job past a queued critical entry")
	d.startWorker()
	r := <-waited
	checkConv(t, key, ws, r.out, r.err)
	if !resolved(crit) {
		t.Error("the standard job resolved before the critical entry queued ahead of it")
	}
	out, err := crit.Wait()
	checkConv(t, key, wc, out, err)
}

// TestVectorEntryIsClaimedWhenAlone: a vector entry alone on an idle
// partition is claimed by its waiter, like a lone job — here there is no
// worker to run it at all. Waiting on one of its jobs runs them all, and
// its siblings resolve without ever making a wake-up channel.
func TestVectorEntryIsClaimedWhenAlone(t *testing.T) {
	systems, key := newPool(t, 1, accel.Conv{})
	s := New(Config{})
	t.Cleanup(s.Close)
	d := workerless(s, systems[0])
	ws := []accel.Workload{accel.GenConv(8, 8, 2, 6), accel.GenConv(8, 8, 2, 7)}
	futs := submitWs(s, key, ws, std)
	out, err := waitFor(t, futs[0])
	checkConv(t, key, ws[0], out, err)
	if !resolved(futs[1]) {
		t.Fatal("the waiter ran one job of its vector entry, not the entry")
	}
	out, err = futs[1].Wait()
	checkConv(t, key, ws[1], out, err)
	for i, f := range futs {
		if f.channel() != nil {
			t.Errorf("job %d of the waiter-run vector made a wake-up channel", i)
		}
	}
	if n := d.completed.Load(); n != 2 {
		t.Errorf("device completed %d jobs, want 2", n)
	}
	if n := d.queued.Load(); n != 0 {
		t.Errorf("device still counts %d queued jobs", n)
	}
}

// TestClaimedRunHoldsOffWorkerExit: a worker whose queue is closed and
// empty does not exit, and so cannot reclaim, while a claimed entry runs.
func TestClaimedRunHoldsOffWorkerExit(t *testing.T) {
	q := newPQueue(4, nil)
	e := newEntry(1, std)
	e.add(core.SealedJob{})
	if !q.push(e, false) || !q.claim(e) {
		t.Fatal("the lone entry on an idle queue was not claimable")
	}
	if q.claim(e) {
		t.Fatal("an entry was claimed twice")
	}
	q.close()
	popped := make(chan *entry, 1)
	go func() { popped <- q.pop() }()
	for deadline := time.Now().Add(20 * time.Millisecond); time.Now().Before(deadline); runtime.Gosched() {
		select {
		case <-popped:
			t.Fatal("the worker's pop returned while a claimed entry ran")
		default:
		}
	}
	q.done()
	select {
	case got := <-popped:
		if got != nil {
			t.Fatal("pop on a closed, drained queue returned an entry")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pop never returned after the claimed entry was done")
	}
}

// TestRemoveRPWaitsForWaiterRun: RemoveRP racing a job its waiter runs
// returns, and reclaims the board, only once that job has resolved with
// its result.
func TestRemoveRPWaitsForWaiterRun(t *testing.T) {
	systems, key, _ := newFaultyPool(t, 1, 20*time.Millisecond)
	s := New(Config{})
	t.Cleanup(s.Close)
	d := workerless(s, systems[0])
	w := accel.GenConv(8, 8, 2, 3)
	f := submitW(s, key, w)
	waited := make(chan result, 1)
	go func() {
		out, err := f.Wait()
		waited <- result{out, err}
	}()
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		d.q.mu.Lock()
		claimed := d.q.running
		d.q.mu.Unlock()
		if claimed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the waiter never claimed its job")
		}
	}
	d.startWorker()
	if err := s.RemoveRP(systems[0].Device.DNA(), AllRPs, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if !resolved(f) {
		t.Error("RemoveRP returned before the job its waiter ran had resolved")
	}
	if !systems[0].Reclaimed() {
		t.Error("the removed board was not reclaimed")
	}
	r := <-waited
	checkConv(t, key, w, r.out, r.err)
}

// TestWaiterRunFaultRedispatches: a retryable fault in a job its waiter
// ran sends it to another partition, and Wait returns its result from
// there.
func TestWaiterRunFaultRedispatches(t *testing.T) {
	systems, key, inj := newFaultyPool(t, 2, 0)
	inj.Break()
	s := New(Config{})
	t.Cleanup(s.Close)
	sick := workerless(s, systems[0])
	w := accel.GenConv(8, 8, 2, 4)
	f := submitW(s, key, w) // the sick board is the only one yet
	if err := s.Register(systems[1]); err != nil {
		t.Fatal(err)
	}
	out, err := waitFor(t, f)
	checkConv(t, key, w, out, err)
	if n := sick.retried.Load(); n != 1 {
		t.Errorf("sick board retried %d jobs, want 1", n)
	}
	if st := findStats(t, s, systems[1].Device.DNA()); st.Completed != 1 {
		t.Errorf("healthy board completed %d jobs, want 1", st.Completed)
	}
}

// TestDoneNeverClaims: Done hands out the channel and leaves the job
// queued; only Wait runs it.
func TestDoneNeverClaims(t *testing.T) {
	systems, key := newPool(t, 1, accel.Conv{})
	s := New(Config{})
	t.Cleanup(s.Close)
	d := workerless(s, systems[0])
	w := accel.GenConv(8, 8, 2, 5)
	f := submitW(s, key, w)
	done := f.Done()
	select {
	case <-done:
		t.Fatal("Done resolved the job")
	default:
	}
	d.q.mu.Lock()
	queued := d.q.entries
	d.q.mu.Unlock()
	if queued != 1 || d.completed.Load() != 0 {
		t.Fatalf("after Done: %d entries queued, %d jobs completed; want the job still queued", queued, d.completed.Load())
	}
	out, err := waitFor(t, f)
	checkConv(t, key, w, out, err)
	select {
	case <-done:
	default:
		t.Error("Done's channel still open after the job resolved")
	}
}
