package federation

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"salus/internal/core"
	"salus/internal/fleet"
	"salus/internal/metrics"
	"salus/internal/sched"
	"salus/internal/simnet"
	"salus/internal/simtime"
	"salus/internal/userapp"
)

// Federation-tier metrics. Per-shard pressure gauges are registered as the
// shards join (salus_federation_pressure_<shard>_x1000).
var (
	mRouted    = metrics.Default().Counter("salus_federation_routed_total")
	mSpilled   = metrics.Default().Counter("salus_federation_spill_total")
	mHandoffs  = metrics.Default().Counter("salus_federation_handoff_total")
	mNetHome   = metrics.Default().Histogram("salus_federation_net_home_seconds")
	mNetSpill  = metrics.Default().Histogram("salus_federation_net_spill_seconds")
	mShardsNow = metrics.Default().Gauge("salus_federation_shards")
)

// DefaultSpillHighWater is the home-shard pressure (mean queued entries per
// device, the same signal fleet autoscaling thresholds on) at or above
// which the router considers the shard saturated and looks for a spill
// target.
const DefaultSpillHighWater = 8.0

// Config tunes a Federation.
type Config struct {
	// VirtualNodes per shard on the routing ring; zero selects
	// DefaultVirtualNodes.
	VirtualNodes int
	// SpillHighWater is the saturation threshold on a shard's backlog
	// pressure; zero selects DefaultSpillHighWater. A job spills only when
	// its home shard is at or above the threshold AND some other shard
	// sits strictly below both the threshold and the home pressure —
	// spilling onto an equally drowning shard helps nobody.
	SpillHighWater float64
	// Clock accumulates the modelled network time the tier charges; nil
	// creates a private clock (read it back with NetClock).
	Clock *simtime.Clock
	// WAN is the owner/client to front-tier link; a zero Link selects
	// simnet.WAN. Region is the intra-region gateway-to-gateway link
	// (front tier to shard, and shard to shard on spill-over); a zero Link
	// selects simnet.IntraCloud.
	WAN, Region simnet.Link
}

// shard is one member gateway: a fleet manager owning a disjoint board
// pool, plus the boards it booted that still await the federation session's
// data key.
type shard struct {
	id   string
	addr string
	mgr  *fleet.Manager

	pressureGauge *metrics.Gauge

	mu      sync.Mutex
	preboot []*core.System // instance-side booted, awaiting the data key
}

// keyed reports whether the shard serves the session: no booted board still
// awaits the data key, and its scheduler holds at least one keyed board.
// It derives from state the shard holds anyway, so a gateway re-served over
// an already provisioned root (a restart) finds the root keyed without a
// second owner handshake.
func (s *shard) keyed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.preboot) == 0 && s.mgr.Scheduler().DeviceCount() > 0
}

// pressure reads the shard's backlog signal and mirrors it into the
// per-shard gauge.
func (s *shard) pressure() float64 {
	p := s.mgr.Pressure()
	s.pressureGauge.Set(int64(p * 1000))
	return p
}

// Federation is the front tier over N shard gateways: consistent-hash
// session routing, saturation spill-over, and region-scoped key hand-off.
type Federation struct {
	cfg   Config
	ring  *Ring
	clock *simtime.Clock

	mu     sync.RWMutex
	shards map[string]*shard
	root   string

	routed   atomic.Uint64 // jobs served by their home shard
	spilled  atomic.Uint64 // jobs moved off a saturated home shard
	handoffs atomic.Uint64 // sibling data-key hand-offs performed
}

// New builds an empty federation; add a root shard first.
func New(cfg Config) *Federation {
	if cfg.SpillHighWater <= 0 {
		cfg.SpillHighWater = DefaultSpillHighWater
	}
	if cfg.WAN == (simnet.Link{}) {
		cfg.WAN = simnet.WAN
	}
	if cfg.Region == (simnet.Link{}) {
		cfg.Region = simnet.IntraCloud
	}
	clock := cfg.Clock
	if clock == nil {
		clock = simtime.NewClock()
	}
	return &Federation{
		cfg:    cfg,
		ring:   NewRing(cfg.VirtualNodes),
		clock:  clock,
		shards: make(map[string]*shard),
	}
}

// Single builds the one-shard federation every lone pool or fleet gateway
// serves: mgr is its root shard "gw0", and the owner's systems join it
// through mgr.Adopt. It returns nil for a nil manager.
func Single(mgr *fleet.Manager) *Federation {
	f := New(Config{})
	if _, err := f.newShard("gw0", mgr, ""); err != nil {
		return nil
	}
	return f
}

// NetClock returns the clock the tier charges modelled network time to.
func (f *Federation) NetClock() *simtime.Clock { return f.clock }

// Ring exposes the routing table (read-only use).
func (f *Federation) Ring() *Ring { return f.ring }

func (f *Federation) newShard(id string, mgr *fleet.Manager, addr string) (*shard, error) {
	if mgr == nil {
		return nil, fmt.Errorf("federation: nil manager for shard %s", id)
	}
	if err := f.ring.Add(id); err != nil {
		return nil, err
	}
	sh := &shard{
		id: id, addr: addr, mgr: mgr,
		pressureGauge: metrics.Default().Gauge("salus_federation_pressure_" + id + "_x1000"),
	}
	f.mu.Lock()
	f.shards[id] = sh
	if f.root == "" {
		f.root = id
	}
	f.mu.Unlock()
	mShardsNow.Add(1)
	return sh, nil
}

// AddRootShard registers the region's attestation anchor and spawns k
// member systems for the data owner's handshake. The owner attests and
// provisions THESE systems only (via the federation gateway or a local
// BootSharedParallel); every later shard receives the data key from them over the
// sibling hand-off — the O(1)-per-region attestation property.
func (f *Federation) AddRootShard(id string, mgr *fleet.Manager, addr string, k int) ([]*core.System, error) {
	f.mu.RLock()
	hasRoot := f.root != ""
	f.mu.RUnlock()
	if hasRoot {
		return nil, fmt.Errorf("federation: root shard already present")
	}
	systems, err := mgr.SpawnN(k)
	if err != nil {
		return nil, err
	}
	if _, err := f.newShard(id, mgr, addr); err != nil {
		return nil, err
	}
	return systems, nil
}

// AddSiblingShard registers a member gateway and boots k boards through
// the instance side only: manufacture, deploy, CL attestation — but no
// quote, no data key and no owner round trip. The boards
// join the shard's scheduler lazily, the first time the router sends the
// shard work, via the sibling data-key hand-off from an already-keyed
// shard (see ensureKeyed).
func (f *Federation) AddSiblingShard(id string, mgr *fleet.Manager, addr string, k int) error {
	f.mu.RLock()
	hasRoot := f.root != ""
	f.mu.RUnlock()
	if !hasRoot {
		return fmt.Errorf("federation: add the root shard first")
	}
	systems, err := mgr.SpawnN(k)
	if err != nil {
		return err
	}
	// Instance-side boots are independent; run them in parallel like the
	// fleet's parallel secure boot.
	errs := make([]error, len(systems))
	var wg sync.WaitGroup
	for i, sys := range systems {
		wg.Add(1)
		go func(i int, sys *core.System) {
			defer wg.Done()
			errs[i] = sys.BootSibling()
		}(i, sys)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("federation: shard %s board %d: %w", id, i, err)
		}
	}
	sh, err := f.newShard(id, mgr, addr)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	sh.preboot = systems
	sh.mu.Unlock()
	return nil
}

// RemoveShard takes a shard off the ring: its segment re-routes to the
// clockwise successors and no new work reaches it. It then closes the
// shard's manager, which waits until every job the shard accepted has
// resolved, and reclaims every partition the shard served, so no key
// outlives the shard's membership. The last keyed shard cannot leave while
// unkeyed shards remain — it is the only possible hand-off donor.
func (f *Federation) RemoveShard(id string) error {
	f.mu.Lock()
	sh, ok := f.shards[id]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("federation: unknown shard %s", id)
	}
	if sh.keyed() {
		keyedLeft, unkeyed := 0, 0
		for sid, other := range f.shards {
			if sid == id {
				continue
			}
			if other.keyed() {
				keyedLeft++
			} else {
				unkeyed++
			}
		}
		if keyedLeft == 0 && unkeyed > 0 {
			f.mu.Unlock()
			return fmt.Errorf("federation: shard %s is the last key holder; key a sibling first", id)
		}
	}
	delete(f.shards, id)
	if f.root == id {
		f.root = ""
		// Prefer a keyed survivor as the new donor anchor.
		ids := make([]string, 0, len(f.shards))
		for sid := range f.shards {
			ids = append(ids, sid)
		}
		sort.Strings(ids)
		for _, sid := range ids {
			if f.shards[sid].keyed() {
				f.root = sid
				break
			}
		}
		if f.root == "" && len(ids) > 0 {
			f.root = ids[0]
		}
	}
	f.mu.Unlock()
	if err := f.ring.Remove(id); err != nil {
		return err
	}
	mShardsNow.Add(-1)
	sh.mgr.Close()
	for _, dna := range sh.mgr.Members() {
		for _, sys := range sh.mgr.Systems(dna) {
			sys.Reclaim()
		}
	}
	return nil
}

// Root returns the donor-anchor shard's id — the shard whose members the
// data owner attests (empty before any shard joined).
func (f *Federation) Root() string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.root
}

// Grant serves the donor side of a wire hand-off: a remote recipient
// enclave (built with core.System.BeginAdoptDataKey, typically on a peer
// region's gateway) sends its local-attestation key request, and a donor
// enclave on a keyed shard answers with the sealed grant. All trust
// decisions live in the enclaves — the donor refuses any report that is
// not an identical, non-debug user program on this platform — so the
// gateway relaying these messages stays untrusted plumbing.
func (f *Federation) Grant(req userapp.KeyRequest) (userapp.KeyGrant, error) {
	donor := f.donor()
	if donor == nil {
		return userapp.KeyGrant{}, fmt.Errorf("federation: no keyed shard can donate")
	}
	grant, err := donor.ShareDataKey(req)
	if err != nil {
		return userapp.KeyGrant{}, err
	}
	f.handoffs.Add(1)
	mHandoffs.Inc()
	return grant, nil
}

// AllDeviceStats concatenates every shard's per-device scheduler stats,
// shards in id order — the federation-wide view Cluster.Stats serves so
// `salus-client top` can point at a front tier unchanged.
func (f *Federation) AllDeviceStats() []sched.DeviceStats {
	f.mu.RLock()
	ids := make([]string, 0, len(f.shards))
	for id := range f.shards {
		ids = append(ids, id)
	}
	shards := make(map[string]*shard, len(f.shards))
	for id, sh := range f.shards {
		shards[id] = sh
	}
	f.mu.RUnlock()
	sort.Strings(ids)
	var out []sched.DeviceStats
	for _, id := range ids {
		out = append(out, shards[id].mgr.Scheduler().Stats()...)
	}
	return out
}

// donor returns a booted enclave system from a keyed shard, root first. A
// shard's members all hold the key (a board joins only once keyed), so any
// shard with a member can donate.
func (f *Federation) donor() *core.System {
	f.mu.RLock()
	ordered := make([]*shard, 0, len(f.shards))
	if root, ok := f.shards[f.root]; ok {
		ordered = append(ordered, root)
	}
	ids := make([]string, 0, len(f.shards))
	for id := range f.shards {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if id != f.root {
			ordered = append(ordered, f.shards[id])
		}
	}
	f.mu.RUnlock()
	for _, sh := range ordered {
		if d := sh.mgr.Scheduler().Donor(); d != nil {
			return d
		}
	}
	return nil
}

// ensureKeyed migrates the federation session onto sh if it is not already
// serving it: every prebooted board adopts the data key from a sibling
// enclave (the first from a donor on an already-keyed shard, the rest from
// the board before them) and registers with the shard's scheduler. Zero
// owner involvement: the only messages are enclave-to-enclave local
// attestation reports and sealed key grants, brokered by the gateways.
func (f *Federation) ensureKeyed(sh *shard) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.preboot) == 0 {
		return nil
	}
	donor := f.donor()
	if donor == nil {
		return fmt.Errorf("federation: no keyed shard can donate to %s", sh.id)
	}
	for _, sys := range sh.preboot {
		if err := sys.AdoptDataKeyFrom(donor); err != nil {
			return fmt.Errorf("federation: hand-off to shard %s: %w", sh.id, err)
		}
		if err := sh.mgr.Adopt(sys); err != nil {
			return fmt.Errorf("federation: shard %s adopt: %w", sh.id, err)
		}
		f.handoffs.Add(1)
		mHandoffs.Inc()
		donor = sys // chain within the shard: one cross-shard hop total
	}
	sh.preboot = nil
	return nil
}

// Route returns the home shard for a session key, its gateway address, and
// the routing-table epoch. Deterministic across every party that holds the
// same membership set.
func (f *Federation) Route(tenant, key string) (id, addr string, epoch uint64, err error) {
	id = f.ring.Route(tenant, key)
	if id == "" {
		return "", "", 0, fmt.Errorf("federation: no shards")
	}
	f.mu.RLock()
	sh := f.shards[id]
	f.mu.RUnlock()
	if sh == nil {
		return "", "", 0, fmt.Errorf("federation: shard %s left during routing", id)
	}
	return id, sh.addr, f.ring.Epoch(), nil
}

// spillTarget picks the least-pressured other shard strictly below both
// the saturation threshold and the home pressure, or nil.
func (f *Federation) spillTarget(home *shard, homePressure float64) *shard {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var best *shard
	bestP := homePressure
	for _, sh := range f.shards {
		if sh == home {
			continue
		}
		if p := sh.pressure(); p < bestP && p < f.cfg.SpillHighWater {
			best, bestP = sh, p
		}
	}
	return best
}

// SubmitResult reports where one job landed.
type SubmitResult struct {
	Future  *sched.Future
	Shard   string
	Spilled bool
}

// place makes the one placement decision for a submission of n jobs
// totalling payloadBytes: consistent-hash to the session's home shard,
// spill-over to the least-loaded sibling when the home shard's backlog
// pressure reports saturation. The target shard is keyed on first use via
// the sibling hand-off; a spill target that cannot be keyed is skipped, not
// fatal — the (saturated but keyed) home shard serves instead. Modelled
// network time (WAN to the front tier, an intra-region hop to the shard,
// one more gateway-to-gateway hop on spill-over) is charged to the
// federation clock once per submission; routed/spilled count jobs.
func (f *Federation) place(tenant, key string, payloadBytes, n int) (target *shard, spilled bool, err error) {
	homeID := f.ring.Route(tenant, key)
	if homeID == "" {
		return nil, false, fmt.Errorf("federation: no shards")
	}
	f.mu.RLock()
	home := f.shards[homeID]
	f.mu.RUnlock()
	if home == nil {
		return nil, false, fmt.Errorf("federation: shard %s left during routing", homeID)
	}
	target = home
	if p := home.pressure(); p >= f.cfg.SpillHighWater {
		if alt := f.spillTarget(home, p); alt != nil && f.ensureKeyed(alt) == nil {
			target, spilled = alt, true
		}
	}
	if !spilled {
		if err := f.ensureKeyed(home); err != nil {
			return nil, false, err
		}
	}
	net := f.cfg.WAN.TransferTime(payloadBytes) + f.cfg.Region.TransferTime(payloadBytes)
	if spilled {
		net += f.cfg.Region.TransferTime(payloadBytes)
	}
	f.clock.Advance(net)
	if spilled {
		f.spilled.Add(uint64(n))
		mSpilled.Add(uint64(n))
		mNetSpill.Observe(net)
	} else {
		f.routed.Add(uint64(n))
		mRouted.Add(uint64(n))
		mNetHome.Observe(net)
	}
	return target, spilled, nil
}

// SubmitBatch routes one kernel's sealed jobs as one unit (one routing and
// spill decision, one modelled transfer of the summed payload) and hands
// them to the target shard's scheduler; see sched.Scheduler.Submit. key is
// only hashed (Ring.Route) and never kept, so it may alias a request frame
// the caller recycles once the call returns (remote.JobRequest.Key).
func (f *Federation) SubmitBatch(tenant, key, kernel string, jobs []core.SealedJob, opt sched.SubmitOptions) ([]*sched.Future, string, bool, error) {
	var payload int
	for _, j := range jobs {
		payload += len(j.Input)
	}
	target, spilled, err := f.place(tenant, key, payload, len(jobs))
	if err != nil {
		return nil, "", false, err
	}
	return target.mgr.Scheduler().Submit(kernel, jobs, opt), target.id, spilled, nil
}

// Submit is SubmitBatch for one sealed job.
func (f *Federation) Submit(tenant, key, kernel string, params [4]uint64, sealed []byte, opt sched.SubmitOptions) (SubmitResult, error) {
	futs, shard, spilled, err := f.SubmitBatch(tenant, key, kernel, []core.SealedJob{{Params: params, Input: sealed}}, opt)
	if err != nil {
		return SubmitResult{}, err
	}
	return SubmitResult{Future: futs[0], Shard: shard, Spilled: spilled}, nil
}

// ShardStats is one member's view in a federation snapshot.
type ShardStats struct {
	ID       string  `json:"id"`
	Addr     string  `json:"addr,omitempty"`
	Devices  int     `json:"devices"`
	Queued   int64   `json:"queued"`
	Pressure float64 `json:"pressure"`
	Keyed    bool    `json:"keyed"`
	Root     bool    `json:"root,omitempty"`
}

// Stats is a federation-wide snapshot.
type Stats struct {
	Epoch    uint64       `json:"epoch"`
	Routed   uint64       `json:"routed"`
	Spilled  uint64       `json:"spilled"`
	Handoffs uint64       `json:"handoffs"`
	Shards   []ShardStats `json:"shards"`
}

// Stats snapshots routing counters and per-shard backlog.
func (f *Federation) Stats() Stats {
	f.mu.RLock()
	shards := make([]*shard, 0, len(f.shards))
	for _, sh := range f.shards {
		shards = append(shards, sh)
	}
	root := f.root
	f.mu.RUnlock()
	sort.Slice(shards, func(i, j int) bool { return shards[i].id < shards[j].id })
	out := Stats{
		Epoch:    f.ring.Epoch(),
		Routed:   f.routed.Load(),
		Spilled:  f.spilled.Load(),
		Handoffs: f.handoffs.Load(),
	}
	for _, sh := range shards {
		out.Shards = append(out.Shards, ShardStats{
			ID:       sh.id,
			Addr:     sh.addr,
			Devices:  sh.mgr.Scheduler().DeviceCount(),
			Queued:   sh.mgr.Scheduler().QueuedTotal(),
			Pressure: sh.pressure(),
			Keyed:    sh.keyed(),
			Root:     sh.id == root,
		})
	}
	return out
}

// Manager returns a shard's fleet manager, or nil.
func (f *Federation) Manager(id string) *fleet.Manager {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if sh, ok := f.shards[id]; ok {
		return sh.mgr
	}
	return nil
}

// Close shuts every shard's manager down; queued jobs still resolve.
func (f *Federation) Close() {
	f.mu.Lock()
	shards := make([]*shard, 0, len(f.shards))
	for _, sh := range f.shards {
		shards = append(shards, sh)
	}
	f.shards = make(map[string]*shard)
	f.root = ""
	f.mu.Unlock()
	for _, sh := range shards {
		sh.mgr.Close()
	}
}
