package sched

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"salus/internal/accel"
	"salus/internal/core"
	"salus/internal/metrics"
)

// Job is one unit of work for Submit. Input is plaintext (the local
// data-owner path, like core.System.RunJob) unless Sealed is set, in which
// case it is the AES-GCM blob a remote data owner sealed under the pool's
// shared data key (like core.System.RunJobSealed) and the result returns
// sealed the same way.
type Job struct {
	Kernel string
	Params [4]uint64
	Input  []byte
	Sealed bool
}

// PlainJob is the plaintext Job for a workload.
func PlainJob(w accel.Workload) Job {
	j := Job{Params: w.Params, Input: w.Input}
	if w.Kernel != nil {
		j.Kernel = w.Kernel.Name()
	}
	return j
}

// Future is the handle returned by Submit: it resolves when the job
// finishes on some device. It lives inside its queue entry (a lone job's
// entry embeds it, a vector entry holds one block of them), and its wake-up
// channel is made only when a waiter finds it unresolved, so a job that is
// done before anyone waits costs no channel at all.
type Future struct {
	mu       sync.Mutex
	done     chan struct{} // nil until a waiter needs it, closed on resolution
	resolved bool
	out      []byte
	err      error
}

// closedDone is what Done returns for a future that resolved before anyone
// asked for its channel.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Wait blocks until the job completes and returns its result.
func (f *Future) Wait() ([]byte, error) {
	if done := f.wake(); done != nil {
		<-done
	}
	return f.out, f.err
}

// Done is closed when the result is available; use with select.
func (f *Future) Done() <-chan struct{} {
	if done := f.wake(); done != nil {
		return done
	}
	return closedDone
}

// wake returns the channel resolve will close, making it if need be, or
// nil once the future has resolved (its result is then safe to read).
func (f *Future) wake() chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.resolved {
		return nil
	}
	if f.done == nil {
		f.done = make(chan struct{})
	}
	return f.done
}

// WaitTimeout blocks until the job completes or d elapses, whichever comes
// first; on timeout it returns ErrWaitTimeout and the future stays live —
// Wait or a later WaitTimeout still observes the eventual result. A
// non-positive d polls: it returns immediately with the result or
// ErrWaitTimeout. Fleet drains use this so one wedged job cannot block a
// decommission forever.
func (f *Future) WaitTimeout(d time.Duration) ([]byte, error) {
	done := f.wake()
	if done == nil {
		return f.out, f.err
	}
	if d <= 0 {
		select {
		case <-done:
			return f.out, f.err
		default:
			return nil, ErrWaitTimeout
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return f.out, f.err
	case <-t.C:
		return nil, ErrWaitTimeout
	}
}

// resolve publishes the result and wakes every waiter; it runs once per
// future.
func (f *Future) resolve(out []byte, err error) {
	f.mu.Lock()
	f.out, f.err, f.resolved = out, err, true
	done := f.done
	f.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// entry is one queue entry: a vector of n >= 1 jobs of one kernel, all
// sealed or all plaintext, riding to one device under one QoS contract. A
// lone job is a vector of one: its job and its future live in the entry
// itself, so it costs one allocation. A vector's futures are one block.
type entry struct {
	kernel   string
	sealed   bool
	attempts int // re-dispatches so far

	// jobs[i] resolves futs[i]; Input is sealed or plaintext per sealed.
	jobs  []core.SealedJob
	futs  []*Future
	job1  [1]core.SealedJob
	fut1  [1]*Future
	own   Future   // a lone job's future
	block []Future // a vector's futures, in job order

	// QoS: class selects the band, deadlineNs (UnixNano, MaxInt64 when
	// none) orders the band's EDF heap with seq as the FIFO tie-break;
	// tenant selects the band's fair-share subqueue and constrains
	// routing to shared or same-tenant partitions.
	class      Class
	tenant     string
	deadline   time.Time
	deadlineNs int64
	seq        uint64

	// submitAt stamps Submit; enqueueAt restamps every (re)dispatch. Wait
	// time is enqueue->worker-pickup, job time is submit->resolution.
	submitAt  time.Time
	enqueueAt time.Time

	// barrier marks a drain sentinel: the worker resolves its one future
	// without touching the device. Barriers sort below every band, so
	// their resolution proves every job accepted before the drain began
	// has finished.
	barrier bool
}

// newEntry returns an empty entry under opt's QoS contract with room for n
// jobs and their futures.
func newEntry(n int, opt SubmitOptions) *entry {
	e := &entry{class: opt.Class.clamp(), tenant: opt.Tenant, deadline: opt.Deadline, deadlineNs: math.MaxInt64}
	if !opt.Deadline.IsZero() {
		e.deadlineNs = opt.Deadline.UnixNano()
	}
	e.jobs, e.futs = e.job1[:0], e.fut1[:0]
	if n > 1 {
		e.jobs, e.futs, e.block = make([]core.SealedJob, 0, n), make([]*Future, 0, n), make([]Future, n)
	}
	return e
}

// add appends one job and its future.
func (e *entry) add(j core.SealedJob) {
	f := &e.own
	if e.block != nil {
		f = &e.block[len(e.jobs)]
	}
	e.jobs = append(e.jobs, j)
	e.futs = append(e.futs, f)
}

// single returns job i as an entry of its own, one attempt further along,
// for re-dispatch away from a device that faulted on it alone. The job
// keeps the future its submitter holds.
func (e *entry) single(i int) *entry {
	sub := &entry{
		kernel: e.kernel, sealed: e.sealed, attempts: e.attempts + 1,
		class: e.class, tenant: e.tenant, deadline: e.deadline, deadlineNs: e.deadlineNs, seq: e.seq,
		submitAt: e.submitAt, enqueueAt: e.enqueueAt, barrier: e.barrier,
	}
	sub.jobs, sub.futs = append(sub.job1[:0], e.jobs[i]), append(sub.fut1[:0], e.futs[i])
	return sub
}

// size is the entry's weight for queue-depth accounting: it loads a device
// with all of its jobs at once.
func (e *entry) size() int64 { return int64(len(e.futs)) }

// expired reports whether the entry's deadline (if any) has passed.
func (e *entry) expired(now time.Time) bool {
	return !e.deadline.IsZero() && !now.Before(e.deadline)
}

// fail resolves every future the entry carries with err and observes the
// end-to-end latency once per job.
func (e *entry) fail(err error) {
	for _, f := range e.futs {
		mJob.Since(e.submitAt)
		f.resolve(nil, err)
	}
}

// device is one registered system plus its queue, counters, and health.
// With spatial sharing the schedulable unit is the reconfigurable
// partition, not the board: each co-resident RP of one die registers as
// its own device — own queue, own worker, own breaker — identified by
// (DNA, rp). tenant, when non-empty, dedicates the partition: routing
// offers it only that tenant's jobs; "" serves everyone.
type device struct {
	sys     *core.System
	rp      int
	tenant  string
	q       *pqueue
	rpGauge *metrics.Gauge // per-RP queue depth, mirrors queued
	queued  atomic.Int64   // accepted and unfinished jobs

	completed atomic.Uint64
	failed    atomic.Uint64
	retried   atomic.Uint64 // jobs this device faulted that were re-dispatched
	shed      atomic.Uint64 // expired jobs dropped at pickup

	// draining stops routing to this device while its queue runs dry
	// (Drain/Remove). The queue checks it under its own lock, so no push
	// can land behind a drain barrier.
	draining atomic.Bool

	// Health / circuit breaker.
	hmu         sync.Mutex
	consecFault int
	quarantined bool
	probing     bool // the single half-open probe entry is in flight
	probeAt     time.Time
	backoff     time.Duration
	maxedProbes int  // failed probes at the backoff ceiling
	permanent   bool // breaker latched open; never probed again
}

// enqueue offers the entry to the device's queue and, on acceptance, takes
// the accounting increments that the dequeue paths pair with.
func (d *device) enqueue(e *entry, force bool) bool {
	e.enqueueAt = time.Now()
	ok := d.q.push(e, force)
	if ok {
		n := e.size()
		d.queued.Add(n)
		mQueueDepth.Add(n)
		d.rpGauge.Add(n)
	}
	return ok
}

// depart takes the accounting decrements for an entry leaving this device
// (completion, terminal failure, shed, or redispatch hand-off).
func (d *device) depart(e *entry) {
	n := e.size()
	d.queued.Add(-n)
	mQueueDepth.Add(-n)
	d.rpGauge.Add(-n)
}

// shedExpired drops an entry whose deadline passed while it waited in the
// queue: counters, then ErrDeadlineExceeded — the device is never
// touched.
func (d *device) shedExpired(e *entry) {
	n := uint64(e.size())
	d.depart(e)
	d.shed.Add(n)
	d.failed.Add(n)
	mShed.Add(n)
	mFailed.Add(n)
	e.fail(ErrDeadlineExceeded)
}

// run is the device's worker: pop, execute, hand the verdicts to finish.
func (d *device) run(s *Scheduler) {
	defer s.wg.Done()
	var lone [1]core.BatchResult
	for {
		e := d.q.pop()
		if e == nil {
			return
		}
		if e.barrier {
			e.futs[0].resolve(nil, nil)
			continue
		}
		if e.expired(time.Now()) {
			d.shedExpired(e)
			continue
		}
		serviceStart := time.Now()
		mWait.Observe(serviceStart.Sub(e.enqueueAt))
		results, err := d.execute(e, lone[:0])
		d.depart(e)
		mService.Since(serviceStart)
		d.finish(s, e, results, err)
	}
}

// execute runs the entry on the device and is the only code that looks at
// its shape. Every core entry point runs one job engine; a lone job goes
// through RunJob/RunJobSealed, which send its register program one
// transaction at a time over all of device memory and allocate no result
// vector, and a vector through the batch calls (one sealed register frame
// and one fabric wait per chunk). A returned error covers the whole entry;
// a lone job's result is appended to buf.
func (d *device) execute(e *entry, buf []core.BatchResult) ([]core.BatchResult, error) {
	lone := len(e.jobs) == 1
	if e.sealed {
		if !lone {
			return d.sys.RunJobSealedBatch(e.kernel, e.jobs)
		}
		out, err := d.sys.RunJobSealed(e.kernel, e.jobs[0].Params, e.jobs[0].Input)
		return append(buf, core.BatchResult{Output: out}), err
	}
	k, ok := accel.KernelByName(e.kernel)
	if !ok {
		return nil, fmt.Errorf("sched: unknown kernel %q", e.kernel)
	}
	if lone {
		out, err := d.sys.RunJob(accel.Workload{Kernel: k, Params: e.jobs[0].Params, Input: e.jobs[0].Input})
		return append(buf, core.BatchResult{Output: out}), err
	}
	ws := make([]accel.Workload, len(e.jobs))
	for i, j := range e.jobs {
		ws[i] = accel.Workload{Kernel: k, Params: j.Params, Input: j.Input}
	}
	return d.sys.RunJobBatch(ws)
}

// finish is the one result handler. err is a fault covering the whole
// entry: a retryable one feeds the breaker and re-dispatches the entry
// intact to another device (bounded by MaxRetries); anything else, or an
// exhausted budget, resolves every future with it. Otherwise the jobs
// resolve individually: a retryable per-job fault is re-dispatched as an
// entry of one, so one sick result cannot force its siblings through
// another round trip. Any success readmits the device; an entry in which
// nothing succeeded and some job faulted retryably is one device fault.
func (d *device) finish(s *Scheduler, e *entry, results []core.BatchResult, err error) {
	if err != nil {
		n := uint64(e.size())
		d.failed.Add(n)
		if Retryable(err) {
			d.onFault(time.Now(), &s.cfg)
			if e.attempts < s.cfg.MaxRetries {
				e.attempts++
				d.retried.Add(n)
				mRedispatched.Add(n)
				s.redispatch(e, d, err)
				return
			}
		}
		mFailed.Add(n)
		e.fail(err)
		return
	}
	succeeded, faulted := false, false
	for i, r := range results {
		if r.Err == nil {
			succeeded = true
			d.completed.Add(1)
			mCompleted.Inc()
			mJob.Since(e.submitAt)
			e.futs[i].resolve(r.Output, nil)
			continue
		}
		d.failed.Add(1)
		if Retryable(r.Err) {
			faulted = true
			if e.attempts < s.cfg.MaxRetries {
				d.retried.Add(1)
				mRedispatched.Inc()
				s.redispatch(e.single(i), d, r.Err)
				continue
			}
		}
		mFailed.Inc()
		mJob.Since(e.submitAt)
		e.futs[i].resolve(nil, r.Err)
	}
	if succeeded {
		d.onSuccess()
	} else if faulted {
		d.onFault(time.Now(), &s.cfg)
	}
}
