package sched

import (
	"fmt"
	"time"

	"salus/internal/core"
)

// pick chooses a target for the kernel under a three-tier preference:
// admissible with queue space, then admissible (the caller may wait or
// shed), then — if every matching device is quarantined — the
// least-loaded one anyway, because degrading beats rejecting and bounded
// retries cap the damage. Within a tier the fewest queued jobs wins,
// ties broken round-robin so an idle pool spreads work instead of
// hammering device 0. The second return reports whether the choice
// currently has queue space. Callers hold at least mu.RLock.
func (s *Scheduler) pick(kernelName, tenant string, exclude *device) (*device, bool) {
	n := len(s.devices)
	if n == 0 {
		return nil, false
	}
	now := time.Now()
	start := int(s.rr.Add(1) % uint64(n))
	var bestSpace, best, fallback *device
	var bestSpaceQ, bestQ, fallbackQ int64
	for i := 0; i < n; i++ {
		d := s.devices[(start+i)%n]
		if d == exclude || d.sys.Package.KernelName != kernelName || !d.serves(tenant) || !d.routable() {
			continue
		}
		q := d.queued.Load()
		if fallback == nil || q < fallbackQ {
			fallback, fallbackQ = d, q
		}
		if !d.admissible(now) {
			continue
		}
		if best == nil || q < bestQ {
			best, bestQ = d, q
		}
		if d.q.hasSpace() && (bestSpace == nil || q < bestSpaceQ) {
			bestSpace, bestSpaceQ = d, q
		}
	}
	switch {
	case bestSpace != nil:
		bestSpace.beginProbe()
		return bestSpace, true
	case best != nil:
		best.beginProbe()
		return best, false
	case fallback != nil:
		fallback.beginProbe()
		return fallback, fallback.q.hasSpace()
	}
	return nil, false
}

// route picks a target under mu.RLock; hasSpace reports whether its queue
// could currently admit a non-forced push. The push itself happens
// outside the lock and may still race to full — callers loop.
func (s *Scheduler) route(kernelName, tenant string, exclude *device) (*device, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrSchedulerClosed
	}
	d, hasSpace := s.pick(kernelName, tenant, exclude)
	if d == nil && exclude != nil {
		// Nobody else runs this kernel for this tenant; the faulting
		// device is still the only candidate.
		d, hasSpace = s.pick(kernelName, tenant, nil)
	}
	if d == nil {
		if tenant != "" {
			return nil, false, fmt.Errorf("sched: no registered device runs kernel %q for tenant %q", kernelName, tenant)
		}
		return nil, false, fmt.Errorf("sched: no registered device runs kernel %q", kernelName)
	}
	return d, hasSpace, nil
}

// admit routes and enqueues e, applying the class-aware overload policy:
// ClassBatch fails fast with ErrOverloaded when no capable queue has
// space; higher classes wait — re-routing every round, so a wedged
// device's full queue never strands them while a healthy sibling has
// room — bounded only by the job's deadline and scheduler shutdown. A
// non-nil return means nothing was enqueued; the caller resolves the
// futures.
func (s *Scheduler) admit(e *entry) error {
	now := time.Now()
	if e.expired(now) {
		mShed.Add(uint64(e.size()))
		return ErrDeadlineExceeded
	}
	var deadlineC <-chan time.Time
	if !e.deadline.IsZero() {
		dt := time.NewTimer(e.deadline.Sub(now))
		defer dt.Stop()
		deadlineC = dt.C
	}
	for {
		d, hasSpace, err := s.route(e.kernel, e.tenant, nil)
		if err != nil {
			return err
		}
		if hasSpace || e.class == ClassCritical {
			// ClassCritical force-enqueues past the capacity check:
			// making the top band wait for queue space would have it race
			// lower-class submitters for every freed slot — priority
			// inversion at the admission gate. The overshoot is bounded
			// by the caller's own concurrency, and the band outranks
			// everything already queued anyway.
			if d.enqueue(e, e.class == ClassCritical) {
				return nil
			}
			// Lost a race (filled or closed under us): pick again.
			continue
		}
		if e.class == ClassBatch {
			mOverloaded.Add(uint64(e.size()))
			return ErrOverloaded
		}
		poll := time.NewTimer(admitPoll)
		select {
		case <-d.q.space:
			poll.Stop()
		case <-poll.C:
		case <-deadlineC:
			poll.Stop()
			mShed.Add(uint64(e.size()))
			return ErrDeadlineExceeded
		case <-s.done:
			poll.Stop()
			return ErrSchedulerClosed
		}
	}
}

// redispatch retries a faulted entry on another device. The force push
// bypasses the capacity bound — the retry budget is already bounded by
// MaxRetries — and never blocks, so workers can redispatch to each other
// without deadlock. Dead ends resolve the futures with the fault.
func (s *Scheduler) redispatch(e *entry, from *device, cause error) {
	for {
		d, _, err := s.route(e.kernel, e.tenant, from)
		if err != nil {
			mFailed.Add(uint64(e.size()))
			e.fail(fmt.Errorf("sched: retry %d dead-ended (%v): %w", e.attempts, err, cause))
			return
		}
		if d.enqueue(e, true) {
			return
		}
		// The chosen queue closed underneath us; routing no longer returns
		// it, so the next round picks someone else (or dead-ends).
	}
}

// SubmitOptions carries a job's QoS contract; the zero value is
// ClassBatch with no deadline, so most callers want at least
// {Class: ClassStandard} — which is what SubmitSealed uses.
type SubmitOptions struct {
	// Class selects the priority band; see Class.
	Class Class
	// Deadline, when non-zero, is the absolute time after which the job's
	// result is worthless. Expired jobs are shed with ErrDeadlineExceeded
	// instead of occupying a device, and a blocked admission gives up
	// when the deadline passes.
	Deadline time.Time
	// Tenant labels the job for fair-share queueing and RP routing: the
	// job lands in its tenant's subqueue of the chosen band (see
	// Config.TenantWeights) and is only routed to partitions dedicated to
	// this tenant or shared ones. Empty means unlabelled — shared
	// partitions only, "" subqueue.
	Tenant string
}

// Submit queues one kernel's sealed jobs under one QoS contract as one
// queue entry and returns their futures, index-aligned with jobs; each
// resolves exactly once. Every input is the AES-GCM blob a data owner sealed
// under the pool's shared data key (see BootSharedParallel), so the entry
// routes by load instead of by identity, and every output returns sealed
// the same way. The jobs ride to one device together: several pay one
// sealed register frame and one fabric wait per chunk instead of per-job
// round trips. An admission failure (closed scheduler, no device for the
// kernel, overload, expired deadline) resolves the entry's futures with the
// error, deterministically, without touching a device queue. Submit never
// runs a job on its caller; Wait may (see Future.Wait).
//
// The entry keeps its own copy of jobs, so the caller may reuse the slice
// as soon as Submit returns (the gateway recycles its vector). Keeping the
// caller's slice instead would move every one-job caller's slice literal to
// the heap: one more allocation a lone job.
func (s *Scheduler) Submit(kernel string, jobs []core.SealedJob, opt SubmitOptions) []*Future {
	if len(jobs) == 0 {
		return nil
	}
	e := newEntry(len(jobs), opt)
	e.kernel = kernel
	for _, j := range jobs {
		e.add(j)
	}
	e.submitAt = time.Now()
	e.seq = s.seq.Add(1)
	n := uint64(e.size())
	mSubmitted.Add(n)
	if err := s.admit(e); err != nil {
		mFailed.Add(n)
		for _, f := range e.futs {
			f.resolve(nil, err)
		}
	}
	return e.futs
}

// The three adapters below are imported by bench/; fold into Submit in the
// next benchmark PR.

// SubmitSealed is Submit for one sealed job at ClassStandard.
func (s *Scheduler) SubmitSealed(kernelName string, params [4]uint64, sealedInput []byte) *Future {
	return s.SubmitSealedOpts(kernelName, params, sealedInput, SubmitOptions{Class: ClassStandard})
}

// SubmitSealedOpts is Submit for one sealed job.
func (s *Scheduler) SubmitSealedOpts(kernelName string, params [4]uint64, sealedInput []byte, opt SubmitOptions) *Future {
	return s.Submit(kernelName, []core.SealedJob{{Params: params, Input: sealedInput}}, opt)[0]
}

// SubmitSealedBatchOpts is Submit.
func (s *Scheduler) SubmitSealedBatchOpts(kernelName string, jobs []core.SealedJob, opt SubmitOptions) []*Future {
	return s.Submit(kernelName, jobs, opt)
}
