package sched

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"salus/internal/core"
	"salus/internal/metrics"
)

// Future is the handle returned by Submit: it resolves when the job
// finishes on some device. It lives inside its queue entry (a lone job's
// entry embeds it, a vector entry holds one block of them), and its wake-up
// channel is made only when a waiter finds it unresolved, so a job that is
// done before anyone waits costs no channel at all.
type Future struct {
	mu   sync.Mutex
	done chan struct{} // nil until a waiter needs it, closed on resolution
	e    *entry        // the entry carrying the job; nil once resolved
	out  []byte
	err  error
}

// closedDone is what Done returns for a future that resolved before anyone
// asked for its channel.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Wait blocks until the job completes and returns its result. An entry
// that is the only one queued on an idle partition, a lone job or a whole
// vector, runs on the waiting goroutine instead of the partition's worker
// (see pqueue.claim), so its futures resolve before any wake-up channel is
// made.
func (f *Future) Wait() ([]byte, error) {
	for f.runIdle() {
		// A retryable fault redispatched the job: it may be idle-queued again.
	}
	if done := f.wake(); done != nil {
		<-done
	}
	return f.out, f.err
}

// Done is closed when the result is available; use with select. Unlike
// Wait it never runs the job.
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
	if f.e == nil {
		return nil
	}
	if f.done == nil {
		f.done = make(chan struct{})
	}
	return f.done
}

// resolve publishes the result and wakes every waiter; it runs once per
// future.
func (f *Future) resolve(out []byte, err error) {
	f.mu.Lock()
	f.out, f.err, f.e = out, err, nil
	done := f.done
	f.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// entry is one queue entry: one submission, a vector of n >= 1 sealed jobs
// of one kernel riding to one device under one QoS contract. A lone job is
// a vector of one: its job and its future live in the entry itself, so it
// costs one allocation. A vector's futures are one block.
type entry struct {
	kernel   string
	attempts int // re-dispatches so far

	// jobs[i] resolves futs[i].
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
	// time is enqueue->pickup, job time is submit->resolution.
	submitAt  time.Time
	enqueueAt time.Time

	// dev is the device the entry was last queued on, for a waiter's claim.
	dev atomic.Pointer[device]
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
	f.e = e
	e.jobs = append(e.jobs, j)
	e.futs = append(e.futs, f)
}

// single returns job i as an entry of its own, one attempt further along,
// for re-dispatch away from a device that faulted on it alone. The job
// keeps the future its submitter holds.
func (e *entry) single(i int) *entry {
	sub := &entry{
		kernel: e.kernel, attempts: e.attempts + 1,
		class: e.class, tenant: e.tenant, deadline: e.deadline, deadlineNs: e.deadlineNs, seq: e.seq,
		submitAt: e.submitAt, enqueueAt: e.enqueueAt,
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

	s *Scheduler // the pool it serves

	// removed is made by RemoveRP before it closes the queue: once the
	// queue has run dry the worker reclaims the system and closes it.
	removed chan struct{}

	// Health / circuit breaker: the service phase (core.PhaseServing,
	// quarantined, probing or written off) and the data of the quarantine.
	hmu         sync.Mutex
	phase       core.Phase
	consecFault int
	probeAt     time.Time
	backoff     time.Duration
	maxedProbes int // failed probes at the backoff ceiling
}

// enqueue offers the entry to the device's queue and, on acceptance, takes
// the accounting increments that the dequeue paths pair with.
func (d *device) enqueue(e *entry, force bool) bool {
	e.enqueueAt = time.Now()
	e.dev.Store(d)
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
	d.endProbe()
	e.fail(ErrDeadlineExceeded)
}

// run is the device's worker: it serves what its queue pops. Once its
// closed queue has run dry, and no waiter still runs a claimed entry, it
// reclaims a removed partition's system, whose last accepted job has then
// resolved, and exits.
func (d *device) run() {
	defer d.s.wg.Done()
	var lone [1]core.BatchResult
	for {
		e := d.q.pop()
		if e == nil {
			if d.removed != nil {
				d.sys.Reclaim()
				close(d.removed)
			}
			return
		}
		d.serve(e, lone[:0])
	}
}

// runIdle runs the future's entry on the calling goroutine if its device's
// queue lets a waiter claim it, and reports whether it did: any entry, a
// lone job or a vector, alone on an idle partition runs on the first of
// its waiters to get there (see pqueue.claim).
func (f *Future) runIdle() bool {
	f.mu.Lock()
	e := f.e
	f.mu.Unlock()
	if e == nil {
		return false
	}
	d := e.dev.Load()
	if d == nil || !d.q.claim(e) {
		return false
	}
	var lone [1]core.BatchResult
	d.serve(e, lone[:0])
	return true
}

// serve is the one way an entry the queue handed out — to the worker's pop
// or a waiter's claim — runs: shed if its deadline passed while it waited,
// else execute, then hand the verdicts to finish. It frees the partition
// for the next entry once every future is resolved or redispatched.
func (d *device) serve(e *entry, buf []core.BatchResult) {
	defer d.q.done()
	now := time.Now()
	if e.expired(now) {
		d.shedExpired(e)
		return
	}
	mWait.Observe(now.Sub(e.enqueueAt))
	results, err := d.execute(e, buf)
	d.depart(e)
	mService.Since(now)
	d.finish(d.s, e, results, err)
}

// execute runs the entry on the device: one RunSealed call for any number
// of jobs, whose register programs ride one sealed register frame and one
// fabric wait per chunk. The results land in buf, which the worker and a
// claiming waiter back with one element, so a lone job allocates no result
// vector; a returned error covers the whole entry.
func (d *device) execute(e *entry, buf []core.BatchResult) ([]core.BatchResult, error) {
	results := slices.Grow(buf[:0], len(e.jobs))[:len(e.jobs)]
	return results, d.sys.RunSealed(e.kernel, e.jobs, results)
}

// finish is the one result handler. err is a fault covering the whole
// entry: a retryable one feeds the breaker and re-dispatches the entry
// intact to another device (bounded by MaxRetries); anything else, or an
// exhausted budget, resolves every future with it. Otherwise the jobs
// resolve individually: a retryable per-job fault is re-dispatched as an
// entry of one, so one sick result cannot force its siblings through
// another round trip. Any success readmits the device; an entry in which
// nothing succeeded and some job faulted retryably is one device fault; a
// rejection ends a half-open probe without a verdict.
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
		} else {
			d.endProbe()
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
	switch {
	case succeeded:
		d.onSuccess()
	case faulted:
		d.onFault(time.Now(), &s.cfg)
	default:
		d.endProbe()
	}
}
