// Package sched fans Salus jobs across a pool of attested FPGA systems.
//
// The paper's evaluation (§6) drives multiple U200 boards from one host
// process; this package reproduces that shape in the simulation. Each
// booted *core.System — its register file and DMA windows a single shared
// resource — gets one worker goroutine and a bounded priority queue, and
// the scheduler routes every submission to the least-loaded healthy device
// whose deployed CL matches its kernel (ties broken round-robin). A
// submission is one kernel's jobs sealed by the data owner under the
// pool's shared data key (cascaded attestation ends at the owner, so owner
// data reaches a board only sealed; local plaintext offload is
// core.System.RunJob, outside the scheduler). Each submission is one queue
// entry. The worker runs what its device's queue holds one entry at a
// time, except that a waiter whose entry is the only one queued on an idle
// device runs that entry itself (Future.Wait), sparing it a hand-off to
// the worker and back. Session reuse (core.System's cached data-key epoch)
// means a device that stays busy pays the 4-write secure key/IV exchange
// once per rekey epoch instead of once per job; it rides the front of the
// epoch's first sealed register frame.
//
// # Failure awareness
//
// A board can die mid-epoch — a wedged shell, a desynced secure channel, a
// yanked cable. Without countermeasures, least-loaded routing *amplifies*
// such a failure: the sick device fails jobs fast, its queue stays short,
// and the scheduler rewards it with ever more traffic. Two mechanisms
// prevent that:
//
//   - Quarantine: consecutive device faults (errors matching
//     core.ErrDeviceFault or an rpc transport failure — see Retryable)
//     trip a per-device circuit breaker. A quarantined device is skipped
//     by routing until its window expires, then admitted exactly one
//     probe job; success readmits it, failure re-quarantines with an
//     exponentially longer window.
//   - Bounded retry: a job that fails with a retryable fault is
//     re-dispatched to another device, up to MaxRetries hops. Jobs the
//     CL or enclave deliberately rejected (unknown kernel, sealed-input
//     authentication failure) are never retried — resubmitting them
//     cannot help and would forge extra failures.
//
// # Overload & QoS
//
// Demand above capacity degrades gracefully instead of blocking or
// collapsing. Every job carries a Class (see SubmitOptions): devices
// serve strict priority across bands and earliest-deadline-first within
// one, so a flood of ClassBatch work cannot delay a ClassCritical job by
// more than the one job already executing. Admission is class-aware:
// when every routable queue for a kernel is full, ClassBatch is rejected
// immediately with ErrOverloaded, while higher classes wait for space on
// *any* capable device — re-routing each round, so one wedged worker can
// never strand a submitter while healthy siblings have room. A job whose
// deadline has already passed is shed with ErrDeadlineExceeded — at
// admission, or at pickup, but never after touching a device.
//
// Every submitted job's future resolves exactly once, quarantined or not,
// retried or not, shed or not, even across Close.
package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"salus/internal/core"
	"salus/internal/fpga"
	"salus/internal/metrics"
	"salus/internal/rpc"
)

// Process-wide metric handles (see internal/metrics): acquired once so the
// per-job hot path is a handful of atomic ops and no map lookups. The queue
// depth gauge counts jobs a device has accepted and not yet finished
// (pending + executing, batches weighted by size); it is incremented
// exactly once when a job is enqueued and decremented exactly once when
// the job leaves its device — completion, terminal failure, deadline
// shed, or hand-off to redispatch (which re-increments at the new
// device). The three latency histograms
// split a job's life into time-in-queue, time-on-device, and end-to-end.
var (
	mQueueDepth   = metrics.Default().Gauge("salus_sched_queue_depth")
	mSubmitted    = metrics.Default().Counter("salus_sched_submitted_total")
	mCompleted    = metrics.Default().Counter("salus_sched_completed_total")
	mFailed       = metrics.Default().Counter("salus_sched_failed_total")
	mRedispatched = metrics.Default().Counter("salus_sched_redispatched_total")
	mOverloaded   = metrics.Default().Counter("salus_sched_overloaded_total")
	mShed         = metrics.Default().Counter("salus_sched_deadline_shed_total")
	mQuarantines  = metrics.Default().Counter("salus_sched_quarantine_total")
	mReadmits     = metrics.Default().Counter("salus_sched_readmit_total")
	mPermanents   = metrics.Default().Counter("salus_sched_permanent_total")
	mWait         = metrics.Default().Histogram("salus_sched_wait_seconds")
	mService      = metrics.Default().Histogram("salus_sched_service_seconds")
	mJob          = metrics.Default().Histogram("salus_sched_job_seconds")
)

// Defaults for Config's zero values.
const (
	// DefaultQueueDepth bounds each device's pending-entry queue. Full
	// queues apply class-aware backpressure: ClassBatch submissions fail
	// fast with ErrOverloaded, higher classes wait for space anywhere.
	DefaultQueueDepth = 32
	// DefaultMaxRetries is how many times one job is re-dispatched after a
	// retryable device fault before its future resolves with the error.
	DefaultMaxRetries = 2
	// DefaultQuarantineAfter is the consecutive-fault count that trips a
	// device's circuit breaker.
	DefaultQuarantineAfter = 3
	// DefaultQuarantineBase is the first quarantine window; each failed
	// probe doubles it up to DefaultQuarantineMax.
	DefaultQuarantineBase = 250 * time.Millisecond
	DefaultQuarantineMax  = 8 * time.Second
)

// admitPoll bounds how long a blocked Standard/Critical submission waits
// before re-routing: space wakeups are per-device single tokens, so the
// poll catches lost races and newly registered or readmitted devices.
const admitPoll = 2 * time.Millisecond

// Config tunes a Scheduler. Zero values select the defaults above.
type Config struct {
	// QueueDepth is the per-device pending-entry bound (a batch counts as
	// one entry).
	QueueDepth int
	// MaxRetries bounds re-dispatches per job after retryable faults;
	// negative disables retry entirely.
	MaxRetries int
	// QuarantineAfter is the consecutive device-fault count that
	// quarantines a device.
	QuarantineAfter int
	// QuarantineBase and QuarantineMax bound the exponential quarantine
	// window.
	QuarantineBase time.Duration
	QuarantineMax  time.Duration
	// PermanentAfter is how many half-open probes must fail at the
	// QuarantineMax backoff ceiling before the breaker latches permanently
	// (the device is never probed or routed to again, and a fleet manager
	// may replace it). Zero or negative disables permanent quarantine.
	PermanentAfter int
	// TenantWeights sets each tenant's share of the per-band weighted
	// round-robin: out of every sum(weights) pops a band serves, tenant t
	// gets TenantWeights[t] of them. Unlisted tenants (and the "" tenant
	// that unlabelled jobs share) weigh 1. Weights shape service order
	// only within one priority band; strict priority across bands is
	// unchanged.
	TenantWeights map[string]int
}

// Lifecycle errors.
var (
	// ErrSchedulerClosed is the deterministic post-Close verdict: any
	// Submit racing or following Close resolves its futures with this
	// error instead of ever touching a device queue. It is not retryable.
	ErrSchedulerClosed = errors.New("sched: scheduler closed")
	// ErrUnknownDevice is returned by RemoveRP for a partition that is not
	// (or no longer) registered.
	ErrUnknownDevice = errors.New("sched: unknown device")
	// ErrDrainTimeout is returned when RemoveRP's deadline expires with
	// jobs still queued. The jobs keep running: the partition has left the
	// pool and is reclaimed once they have resolved.
	ErrDrainTimeout = errors.New("sched: drain deadline exceeded")
	// ErrOverloaded is the fast-reject verdict for ClassBatch work when
	// every routable queue for its kernel is full. The caller may retry
	// later; nothing was enqueued.
	ErrOverloaded = errors.New("sched: overloaded")
	// ErrDeadlineExceeded resolves a job whose deadline passed before a
	// device could run it; the job never executed.
	ErrDeadlineExceeded = errors.New("sched: deadline exceeded")
)

// Retryable reports whether err is a transport- or session-level fault —
// the device misbehaved, the job itself was never refused — and so the job
// may succeed on another device. Deliberate rejections (unknown kernel,
// sealed-input authentication, attestation failures) are not retryable.
func Retryable(err error) bool {
	return errors.Is(err, core.ErrDeviceFault) || errors.Is(err, rpc.ErrClosed)
}

// Scheduler routes jobs to a pool of booted systems.
//
// Lock discipline: routing holds mu.RLock only long enough to pick a
// device; the queue push happens outside the scheduler lock under the
// queue's own mutex, which also arbitrates closure — a push racing Close
// or RemoveRP observes a closed queue and re-routes, so nothing is ever
// lost or sent into the void. A blocked admission holds no locks at all.
type Scheduler struct {
	mu      sync.RWMutex
	devices []*device
	closed  bool
	done    chan struct{} // closed by Close; unblocks admission waiters
	wg      sync.WaitGroup
	rr      atomic.Uint64 // round-robin offset for tie-breaking
	seq     atomic.Uint64 // submission order for EDF ties
	cfg     Config        // defaults applied
}

// New returns an empty scheduler; add systems with Register.
func New(cfg Config) *Scheduler {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	} else if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.QuarantineAfter <= 0 {
		cfg.QuarantineAfter = DefaultQuarantineAfter
	}
	if cfg.QuarantineBase <= 0 {
		cfg.QuarantineBase = DefaultQuarantineBase
	}
	if cfg.QuarantineMax <= 0 {
		cfg.QuarantineMax = DefaultQuarantineMax
	}
	return &Scheduler{done: make(chan struct{}), cfg: cfg}
}

// AllRPs, passed as the rp argument of RemoveRP, selects every
// registered partition of the board: a board is all of its RPs.
const AllRPs = -1

// Register adds a booted system to the pool as a shared partition (any
// tenant's work may route to it) and starts its worker. The system must
// have completed SecureBoot (or the remote provisioning handshake): the
// scheduler never boots devices itself, because boot is where attestation
// evidence is checked and that belongs to the owner. The schedulable unit
// is the system's reconfigurable partition — co-resident RPs of one die
// register independently and queue, dispatch, and drain independently.
func (s *Scheduler) Register(sys *core.System) error { return s.RegisterTenant(sys, "") }

// RegisterTenant is Register with the partition dedicated to one tenant:
// routing offers it only jobs submitted with the same SubmitOptions.Tenant
// label. An empty tenant registers a shared partition.
func (s *Scheduler) RegisterTenant(sys *core.System, tenant string) error {
	if sys == nil {
		return fmt.Errorf("sched: nil system")
	}
	if !sys.Booted() {
		return fmt.Errorf("sched: system %s not booted", sys.Device.DNA())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSchedulerClosed
	}
	rp := sys.Partition()
	if len(s.find(sys.Device.DNA(), rp)) > 0 {
		return fmt.Errorf("sched: partition %s/rp%d already registered", sys.Device.DNA(), rp)
	}
	d := &device{
		s:       s,
		sys:     sys,
		rp:      rp,
		tenant:  tenant,
		phase:   core.PhaseServing,
		rpGauge: metrics.Default().Gauge(fmt.Sprintf("salus_sched_rp_queue_depth_%s_rp%d", sys.Device.DNA(), rp)),
	}
	d.q = newPQueue(s.cfg.QueueDepth, s.cfg.TenantWeights)
	s.devices = append(s.devices, d)
	s.wg.Add(1)
	go d.run()
	return nil
}

// serves reports whether the partition may be offered this tenant's work:
// shared partitions serve everyone, dedicated ones only their own tenant.
func (d *device) serves(tenant string) bool {
	return d.tenant == "" || d.tenant == tenant
}

// is reports whether the device is partition rp of board dna; AllRPs
// matches any partition of the board.
func (d *device) is(dna fpga.DNA, rp int) bool {
	return d.sys.Device.DNA() == dna && (rp == AllRPs || d.rp == rp)
}

// find returns the registered partitions matching (dna, rp). Callers hold
// at least mu.RLock.
func (s *Scheduler) find(dna fpga.DNA, rp int) []*device {
	var out []*device
	for _, d := range s.devices {
		if d.is(dna, rp) {
			out = append(out, d)
		}
	}
	return out
}

// unknown is the ErrUnknownDevice verdict for (dna, rp).
func unknown(dna fpga.DNA, rp int) error {
	if rp == AllRPs {
		return fmt.Errorf("%w: %s", ErrUnknownDevice, dna)
	}
	return fmt.Errorf("%w: %s/rp%d", ErrUnknownDevice, dna, rp)
}

// RemoveRP decommissions partition rp of the board — every partition for
// AllRPs — and is the scheduler's only removal: it unregisters them from
// the pool and closes their queues at once, so no new work reaches them,
// and each one's worker runs its accepted jobs to resolution, then
// reclaims the partition's system (core.System.Reclaim zeroizes its key
// material) as it exits. No accepted job is ever lost and no key outlives
// the partition's tenancy. RemoveRP waits for those workers, bounded by
// timeout (<= 0 waits forever): on success every removed system is
// reclaimed when it returns; past the deadline it returns ErrDrainTimeout
// then and there, and the workers reclaim once their leftover jobs have
// resolved.
func (s *Scheduler) RemoveRP(dna fpga.DNA, rp int, timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSchedulerClosed
	}
	removed := s.find(dna, rp)
	kept := s.devices[:0]
	for _, d := range s.devices {
		if !d.is(dna, rp) {
			kept = append(kept, d)
		}
	}
	s.devices = kept
	for _, d := range removed {
		d.removed = make(chan struct{})
		d.q.close()
	}
	s.mu.Unlock()
	if len(removed) == 0 {
		return unknown(dna, rp)
	}
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	for _, d := range removed {
		select {
		case <-d.removed:
		case <-deadline:
			return fmt.Errorf("%w: %s", ErrDrainTimeout, dna)
		}
	}
	return nil
}

// Close stops accepting jobs, drains every queue, and waits for the
// workers, those of removed partitions included. Already-queued jobs still
// run; their futures resolve. A job that faults during shutdown resolves
// with its error instead of retrying; blocked admissions resolve with
// ErrSchedulerClosed. Close reclaims nothing: the systems stay booted, so a
// gateway that is served again can reuse them.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	devices := s.devices
	s.mu.Unlock()
	close(s.done)
	for _, d := range devices {
		d.q.close()
	}
	s.wg.Wait()
}

// Donor returns a registered partition's system to give the data key in a
// sibling hand-off, preferring a serving partition to a quarantined or
// written-off one (its enclave still holds the key), or nil for an empty
// pool. A partition leaves the pool before it is reclaimed, so every
// registered system is keyed; one reclaimed mid hand-off refuses it.
func (s *Scheduler) Donor() *core.System {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var fallback *core.System
	for _, d := range s.devices {
		d.hmu.Lock()
		serving := d.phase == core.PhaseServing
		d.hmu.Unlock()
		if serving {
			return d.sys
		}
		if fallback == nil {
			fallback = d.sys
		}
	}
	return fallback
}

// DeviceStats is one device's lifetime counters and health snapshot.
type DeviceStats struct {
	DNA fpga.DNA
	// RP is the reconfigurable partition index on the die; co-resident
	// partitions of one board report one row each, same DNA.
	RP int
	// Tenant is the partition's dedication ("" = shared).
	Tenant    string
	Kernel    string
	Queued    int64
	Completed uint64
	Failed    uint64
	// Retried counts jobs this device faulted that were re-dispatched
	// elsewhere (they appear in Failed too).
	Retried uint64
	// Shed counts jobs dropped at pickup because their deadline had
	// already passed (they appear in Failed too).
	Shed uint64
	// Quarantined reports whether the device's circuit breaker is
	// currently open; ConsecutiveFaults is its running fault streak.
	Quarantined       bool
	ConsecutiveFaults int
	// Backoff is the current quarantine window; Permanent reports a
	// latched breaker (the device will never be probed again).
	Backoff   time.Duration
	Permanent bool
}

// QueuedTotal sums the pending-entry count across every device — the raw
// backlog signal behind fleet autoscaling and federation spill-over. Far
// cheaper than Stats: two atomic loads per device, no health-mutex traffic,
// so a routing tier may consult it on every submission.
func (s *Scheduler) QueuedTotal() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, d := range s.devices {
		n += d.queued.Load()
	}
	return n
}

// DeviceCount reports the registered device count (including quarantined
// members).
func (s *Scheduler) DeviceCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.devices)
}

// Stats snapshots the pool.
func (s *Scheduler) Stats() []DeviceStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]DeviceStats, 0, len(s.devices))
	for _, d := range s.devices {
		d.hmu.Lock()
		phase, faults, backoff := d.phase, d.consecFault, d.backoff
		d.hmu.Unlock()
		out = append(out, DeviceStats{
			DNA:               d.sys.Device.DNA(),
			RP:                d.rp,
			Tenant:            d.tenant,
			Kernel:            d.sys.Package.KernelName,
			Queued:            d.queued.Load(),
			Completed:         d.completed.Load(),
			Failed:            d.failed.Load(),
			Retried:           d.retried.Load(),
			Shed:              d.shed.Load(),
			Quarantined:       phase != core.PhaseServing,
			ConsecutiveFaults: faults,
			Backoff:           backoff,
			Permanent:         phase == core.PhaseWrittenOff,
		})
	}
	return out
}
