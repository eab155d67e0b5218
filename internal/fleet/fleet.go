// Package fleet manages the device lifecycle of a Salus pool: hot add, hot
// remove, parallel secure boot, and replacement of permanently
// quarantined boards — the elastic layer between "N simulated boards" and a
// production-scale serving deployment.
//
// The manager owns the machinery the whole fleet shares:
//
//   - one manufacturer service and one TEE host platform — fleet members
//     live on one physical host, and SGX local attestation (the basis of
//     the sibling data-key hand-off) only verifies within a platform;
//   - one smapp.PreparedCache and smapp.QuotePool, so the Figure-9
//     dominant boot stages (bitstream verification, manipulation, quote
//     generation) are paid once per CL instead of once per board;
//   - one sched.Scheduler, which keeps serving while membership changes.
//
// Every member deploys the same kernel at the same place-and-route seed, so
// all boards share one CL digest and the prepared-bitstream cache hits on
// every boot after the first.
//
// # Keying
//
// The manager never holds the data key. The data owner attests the first
// boards and provisions its key straight into their enclaves (over the
// remote gateway, or in process through sched.BootSharedParallel), and the
// manager Adopts them. Every later board — Add, Replace, Scale, the
// autoscaler — boots without the key: its user enclave receives it from an
// already-attested sibling enclave via local attestation
// (core.AdoptDataKeyFrom), so elasticity never requires the owner to reveal
// the key to the host.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"salus/internal/accel"
	"salus/internal/core"
	"salus/internal/fpga"
	"salus/internal/manufacturer"
	"salus/internal/metrics"
	"salus/internal/netlist"
	"salus/internal/place"
	"salus/internal/sched"
	"salus/internal/sgx"
	"salus/internal/shell"
	"salus/internal/smapp"
	"salus/internal/trace"
)

// DefaultDrainTimeout bounds the drain of a removal whose caller names no
// timeout — Replace and Scale: past it the verb returns
// sched.ErrDrainTimeout, and the board's leftover jobs still resolve
// before it is reclaimed.
const DefaultDrainTimeout = 30 * time.Second

// Fleet lifecycle metrics. The members gauge mirrors the membership map;
// per-phase boot histograms (salus_fleet_boot_<phase>_seconds) are fed from
// each adopted member's trace, so the aggregate metrics and the merged
// Figure-9 boot trace agree sample for sample.
var (
	mMembers  = metrics.Default().Gauge("salus_fleet_members")
	mAdds     = metrics.Default().Counter("salus_fleet_add_total")
	mAddFails = metrics.Default().Counter("salus_fleet_add_fail_total")
	mRemoves  = metrics.Default().Counter("salus_fleet_remove_total")
	mReplaces = metrics.Default().Counter("salus_fleet_replace_total")
	mBoot     = metrics.Default().Histogram("salus_fleet_boot_seconds")
)

// bootPhasePrefix names the per-phase boot histograms fed at Adopt.
const bootPhasePrefix = "salus_fleet_boot_"

// Config assembles a fleet manager.
type Config struct {
	// Kernel every member deploys. Required.
	Kernel accel.Kernel
	// Seed is the fixed place-and-route seed; keeping it identical across
	// members is what makes the prepared-bitstream cache effective.
	Seed int64
	// Timing applies to every member (zero selects core.FastTiming).
	Timing core.Timing
	// Profile selects the device model (zero selects the default).
	Profile netlist.DeviceProfile
	// DNAPrefix names manufactured boards ("<prefix>-NN"); default "FLEET".
	DNAPrefix string
	// RPsPerDevice carves every manufactured board into this many
	// reconfigurable partitions, each booting its own core.System — own
	// sealed channel, counter, and key epoch — and registering with the
	// scheduler as an independent serving unit (§4.7 spatial sharing). K
	// boards therefore serve K×RPsPerDevice schedulable partitions.
	// MinDevices/MaxDevices still count boards. Zero or one selects the
	// classic one-system-per-board fleet. New rejects a configuration
	// whose kernel plus SM logic cannot fit the profile's per-RP budget
	// (place.ErrUnplaceable).
	RPsPerDevice int

	// Manufacturer reuses an existing service (e.g. one already serving
	// RPC); nil creates a fresh one.
	Manufacturer *manufacturer.Service
	// HostPlatform reuses an existing TEE host platform instead of creating
	// a fresh one. Federated shards in one region must share a platform:
	// the cross-gateway data-key hand-off rides SGX local attestation,
	// which only verifies between enclaves of the same platform.
	HostPlatform *sgx.Platform
	// Prepared and Quotes share boot caches across fleet managers (e.g.
	// every shard of a federation deploying the same CL pays one bitstream
	// manipulation region-wide). Nil creates per-manager caches.
	Prepared *smapp.PreparedCache
	Quotes   *smapp.QuotePool
	// KeyService overrides how SM enclaves reach key distribution (e.g. the
	// RPC client from internal/remote). Nil means the in-process service.
	KeyService smapp.KeyService
	// Intercept optionally installs a compromised shell on specific boards
	// (attack experiments and fault-injection tests).
	Intercept func(fpga.DNA) shell.Interceptor

	// Scheduler tunes the underlying pool; see sched.Config. Set
	// PermanentAfter there for auto-replace to ever trigger.
	Scheduler sched.Config
	// MinDevices refuses Remove below this floor (zero: no floor).
	// MaxDevices refuses Add beyond this ceiling (zero: no ceiling);
	// Replace may exceed it by one transiently so capacity never dips.
	MinDevices, MaxDevices int

	// OnReplace is called by the auto-replace loop after each successful
	// replacement (optional; must be fast and concurrency-safe).
	OnReplace func(old, new fpga.DNA)
}

// Manager owns a fleet's lifecycle on top of a sched.Scheduler.
type Manager struct {
	cfg      Config
	mfr      *manufacturer.Service
	host     *sgx.Platform
	prepared *smapp.PreparedCache
	quotes   *smapp.QuotePool
	sch      *sched.Scheduler

	bootTrace *trace.Log // merged per-device boot traces (Figure-9 fleet report)

	rps int             // partitions per board (>= 1)
	pkg *core.CLPackage // the CL every partition deploys, developed once

	mu      sync.Mutex
	members map[fpga.DNA][]*core.System // every adopted RP of each board
	seq     int
	pending int // boards spawned but not yet adopted
	closed  bool

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// New assembles an empty fleet. The data owner boots its first members
// through SpawnN and Adopt; from then on the fleet grows and shrinks at
// will.
func New(cfg Config) (*Manager, error) {
	if cfg.Kernel == nil {
		return nil, fmt.Errorf("fleet: no kernel configured")
	}
	if cfg.DNAPrefix == "" {
		cfg.DNAPrefix = "FLEET"
	}
	rps := cfg.RPsPerDevice
	if rps < 1 {
		rps = 1
	}
	profile := cfg.Profile
	if profile.Name == "" {
		profile = netlist.TestDevice
	}
	// Footprint-aware admission: refuse a fleet whose kernel cannot live
	// in one partition's budget before any board is manufactured.
	if _, err := place.Pack([]place.Footprint{place.KernelFootprint(cfg.Kernel)}, 1, profile.RPResources, cfg.Seed); err != nil {
		return nil, fmt.Errorf("fleet: kernel %s with %d RPs/board: %w", cfg.Kernel.Name(), rps, err)
	}
	mfr := cfg.Manufacturer
	if mfr == nil {
		var err error
		mfr, err = manufacturer.New()
		if err != nil {
			return nil, err
		}
	}
	host := cfg.HostPlatform
	if host == nil {
		var err error
		host, err = sgx.NewPlatform(mfr.Authority())
		if err != nil {
			return nil, err
		}
	}
	// Every member deploys the same CL: develop it once, not per partition.
	pkg, err := core.DevelopCL(cfg.Kernel, profile, cfg.Seed)
	if err != nil {
		return nil, err
	}
	prepared := cfg.Prepared
	if prepared == nil {
		prepared = smapp.NewPreparedCache()
	}
	quotes := cfg.Quotes
	if quotes == nil {
		quotes = smapp.NewQuotePool()
	}
	return &Manager{
		cfg:       cfg,
		mfr:       mfr,
		host:      host,
		prepared:  prepared,
		quotes:    quotes,
		rps:       rps,
		pkg:       pkg,
		sch:       sched.New(cfg.Scheduler),
		bootTrace: trace.New(),
		members:   make(map[fpga.DNA][]*core.System),
		stopCh:    make(chan struct{}),
	}, nil
}

// Fixed wraps the caller's scheduler in a manager pinned at the boards of
// systems, which join it through Adopt: MinDevices and MaxDevices both equal
// the board count, and the boards count as pending until adopted, so Add
// and Remove are refused whether or not the owner has provisioned them. It
// spawns nothing and so needs no kernel. Close closes sch.
func Fixed(sch *sched.Scheduler, systems []*core.System) *Manager {
	boards := make(map[fpga.DNA]bool)
	for _, sys := range systems {
		boards[sys.Device.DNA()] = true
	}
	n := len(boards)
	return &Manager{
		cfg:       Config{MinDevices: n, MaxDevices: n},
		prepared:  smapp.NewPreparedCache(),
		quotes:    smapp.NewQuotePool(),
		rps:       1,
		sch:       sch,
		bootTrace: trace.New(),
		members:   make(map[fpga.DNA][]*core.System),
		pending:   n,
		stopCh:    make(chan struct{}),
	}
}

// RPsPerDevice reports how many reconfigurable partitions each board
// serves.
func (m *Manager) RPsPerDevice() int { return m.rps }

// Scheduler exposes the underlying pool for job submission.
func (m *Manager) Scheduler() *sched.Scheduler { return m.sch }

// PreparedStats and QuoteStats snapshot the shared boot caches.
func (m *Manager) PreparedStats() smapp.PreparedStats { return m.prepared.Stats() }
func (m *Manager) QuoteStats() smapp.QuoteStats       { return m.quotes.Stats() }

// Members lists current member DNAs (order unspecified).
func (m *Manager) Members() []fpga.DNA {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]fpga.DNA, 0, len(m.members))
	for dna := range m.members {
		out = append(out, dna)
	}
	return out
}

// System returns the board's lowest-numbered partition system, or nil.
func (m *Manager) System(dna fpga.DNA) *core.System {
	m.mu.Lock()
	defer m.mu.Unlock()
	var best *core.System
	for _, sys := range m.members[dna] {
		if best == nil || sys.Partition() < best.Partition() {
			best = sys
		}
	}
	return best
}

// Systems returns every adopted partition system of the board (adoption
// order), or nil.
func (m *Manager) Systems(dna fpga.DNA) []*core.System {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*core.System(nil), m.members[dna]...)
}

// Stats snapshots the scheduler's per-device counters.
func (m *Manager) Stats() []sched.DeviceStats { return m.sch.Stats() }

// spawn manufactures one board carved into the fleet's RPsPerDevice
// partitions and assembles its (unbooted) per-partition systems around
// the fleet's shared manufacturer, platform, and boot caches.
func (m *Manager) spawn(ignoreCap bool) ([]*core.System, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("fleet: manager closed")
	}
	if !ignoreCap && m.cfg.MaxDevices > 0 && len(m.members)+m.pending >= m.cfg.MaxDevices {
		m.mu.Unlock()
		return nil, fmt.Errorf("fleet: at capacity (%d devices)", m.cfg.MaxDevices)
	}
	dna := fpga.DNA(fmt.Sprintf("%s-%02d", m.cfg.DNAPrefix, m.seq))
	m.seq++
	m.pending++
	m.mu.Unlock()

	cfg := core.SystemConfig{
		Seed:         m.cfg.Seed,
		DNA:          dna,
		Timing:       m.cfg.Timing,
		Profile:      m.cfg.Profile,
		Manufacturer: m.mfr,
		KeyService:   m.cfg.KeyService,
		HostPlatform: m.host,
		Prepared:     m.prepared,
		Quotes:       m.quotes,
		Package:      m.pkg,
	}
	if m.cfg.Intercept != nil {
		cfg.Interceptor = m.cfg.Intercept(dna)
	}
	kernels := make([]accel.Kernel, m.rps)
	for i := range kernels {
		kernels[i] = m.cfg.Kernel
	}
	systems, err := core.NewPartitionSystems(cfg, kernels)
	if err != nil {
		m.unspawn()
		return nil, err
	}
	return systems, nil
}

// unspawn rolls back one board's pending slot.
func (m *Manager) unspawn() {
	m.mu.Lock()
	if m.pending > 0 {
		m.pending--
	}
	m.mu.Unlock()
}

// SpawnN creates k unbooted boards and returns their k×RPsPerDevice
// partition systems, flattened board-major (board 0's partitions 0..R-1,
// then board 1's, ...). The remote gateway path uses this: the data owner
// attests and provisions the spawned systems over RPC, then the gateway
// Adopts them.
func (m *Manager) SpawnN(k int) ([]*core.System, error) {
	systems := make([]*core.System, 0, k*m.rps)
	boards := 0
	for i := 0; i < k; i++ {
		batch, err := m.spawn(false)
		if err != nil {
			for b := 0; b < boards; b++ {
				m.unspawn()
			}
			return nil, err
		}
		boards++
		systems = append(systems, batch...)
	}
	return systems, nil
}

// Adopt registers an externally booted system (e.g. provisioned through the
// remote gateway) as a fleet member and folds its boot trace into the
// fleet report. Each partition of a multi-RP board is adopted on its own;
// the board becomes a member (and releases its pending slot) with its
// first adopted partition.
func (m *Manager) Adopt(sys *core.System) error {
	if sys == nil {
		return fmt.Errorf("fleet: nil system")
	}
	dna := sys.Device.DNA()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return fmt.Errorf("fleet: manager closed")
	}
	for _, member := range m.members[dna] {
		if member.Partition() == sys.Partition() {
			m.mu.Unlock()
			return fmt.Errorf("fleet: partition %s/rp%d already a member", dna, sys.Partition())
		}
	}
	m.mu.Unlock()
	if err := m.sch.Register(sys); err != nil {
		return err
	}
	m.mu.Lock()
	firstRP := len(m.members[dna]) == 0
	m.members[dna] = append(m.members[dna], sys)
	if firstRP && m.pending > 0 {
		m.pending--
	}
	m.mu.Unlock()
	if firstRP {
		mMembers.Add(1)
	}
	m.bootTrace.Merge(sys.Trace)
	trace.FeedHistograms(metrics.Default(), sys.Trace, bootPhasePrefix)
	var bootTotal time.Duration
	for _, sample := range sys.Trace.Samples() {
		bootTotal += sample.D
	}
	if bootTotal > 0 {
		mBoot.Observe(bootTotal)
	}
	return nil
}

// bootSibling boots sys without the data key: run the instance-side boot
// up to the CL's attestation (⑦) and have a sibling enclave hand the key
// over via local attestation. The enclaves are the gate: the donor grants
// the key only to a recipient bound to the CL digest the donor attested.
func (m *Manager) bootSibling(sys *core.System) error {
	donor := m.sch.Donor()
	if donor == nil {
		return fmt.Errorf("fleet: sibling hand-off needs a booted donor")
	}
	if err := sys.BootSibling(); err != nil {
		return err
	}
	return sys.AdoptDataKeyFrom(donor)
}

// add hot-adds one board through the sibling hand-off; ignoreCap lets
// Replace exceed MaxDevices.
func (m *Manager) add(ignoreCap bool) (fpga.DNA, error) {
	systems, err := m.spawn(ignoreCap)
	if err != nil {
		mAddFails.Inc()
		return "", err
	}
	dna := systems[0].Device.DNA()
	for _, sys := range systems {
		if err := m.bootSibling(sys); err != nil {
			m.unspawn()
			mAddFails.Inc()
			return "", fmt.Errorf("fleet: hot add %s/rp%d: %w", dna, sys.Partition(), err)
		}
	}
	for _, sys := range systems {
		if err := m.Adopt(sys); err != nil {
			mAddFails.Inc()
			return "", err
		}
	}
	mAdds.Inc()
	return dna, nil
}

// Add hot-adds one board: manufacture, secure boot, take the data key from
// a sibling enclave, register. The scheduler keeps serving throughout; the
// new board takes work from the moment Add returns.
func (m *Manager) Add() (fpga.DNA, error) { return m.add(false) }

// AddSibling is Add under its older name, which the benchmark module calls.
func (m *Manager) AddSibling() (fpga.DNA, error) { return m.Add() }

// Remove decommissions the member. It refuses, draining nothing, when the
// fleet would drop below MinDevices; otherwise the board leaves the fleet
// at once and sched.RemoveRP runs every partition's accepted jobs to
// resolution and reclaims its system. Remove returns with the board
// reclaimed, or with sched.ErrDrainTimeout once timeout (<= 0: never) has
// passed, and then the board, already out of the pool, is reclaimed when
// its leftover jobs have resolved.
func (m *Manager) Remove(dna fpga.DNA, timeout time.Duration) error {
	m.mu.Lock()
	if _, ok := m.members[dna]; !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", sched.ErrUnknownDevice, dna)
	}
	if m.cfg.MinDevices > 0 && len(m.members) <= m.cfg.MinDevices {
		m.mu.Unlock()
		return fmt.Errorf("fleet: removal would drop below %d devices", m.cfg.MinDevices)
	}
	delete(m.members, dna)
	m.mu.Unlock()
	mMembers.Add(-1)
	mRemoves.Inc()
	return m.sch.RemoveRP(dna, sched.AllRPs, timeout)
}

// Replace hot-adds a fresh board and then removes dna — add-first, so
// serving capacity never dips (transiently exceeding MaxDevices by one).
// The drain is bounded by DefaultDrainTimeout; the returned DNA is set once
// the fresh board has joined.
func (m *Manager) Replace(dna fpga.DNA) (fpga.DNA, error) {
	m.mu.Lock()
	_, known := m.members[dna]
	m.mu.Unlock()
	if !known {
		return "", fmt.Errorf("%w: %s", sched.ErrUnknownDevice, dna)
	}
	newDNA, err := m.add(true)
	if err != nil {
		return "", err
	}
	err = m.Remove(dna, DefaultDrainTimeout)
	if left(err) {
		mReplaces.Inc()
	}
	return newDNA, err
}

// left reports whether a removal that returned err took its board out of
// the fleet: a drain timeout does, and only delays the reclaim.
func left(err error) bool { return err == nil || errors.Is(err, sched.ErrDrainTimeout) }

// AutoReplaceOnce scans for permanently quarantined members and replaces
// each, returning the old→new mapping. Errors don't stop the sweep; the
// first one is returned after every candidate was attempted.
func (m *Manager) AutoReplaceOnce() (map[fpga.DNA]fpga.DNA, error) {
	replaced := make(map[fpga.DNA]fpga.DNA)
	var firstErr error
	for _, ds := range m.sch.Stats() {
		if !ds.Permanent {
			continue
		}
		// Stats rows are per-RP; replace each sick board once.
		if _, done := replaced[ds.DNA]; done {
			continue
		}
		newDNA, err := m.Replace(ds.DNA)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if newDNA == "" || !left(err) {
			continue
		}
		replaced[ds.DNA] = newDNA
		if m.cfg.OnReplace != nil {
			m.cfg.OnReplace(ds.DNA, newDNA)
		}
	}
	return replaced, firstErr
}

// StartAutoReplace runs AutoReplaceOnce every interval until Close. Failed
// sweeps are retried at the next tick.
func (m *Manager) StartAutoReplace(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-m.stopCh:
				return
			case <-t.C:
				m.AutoReplaceOnce() //nolint:errcheck // retried next tick
			}
		}
	}()
}

// Close stops the auto-replace loop and shuts the scheduler down; every
// queued job still resolves.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.stopOnce.Do(func() { close(m.stopCh) })
	m.wg.Wait()
	m.sch.Close()
}
