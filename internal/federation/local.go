package federation

import (
	"fmt"

	"salus/internal/accel"
	"salus/internal/core"
	"salus/internal/fleet"
	"salus/internal/manufacturer"
	"salus/internal/sched"
	"salus/internal/sgx"
	"salus/internal/smapp"
)

// LocalSpec assembles a whole federation in one process: N shard gateways
// sharing one manufacturer, one TEE host platform (the hand-off rides SGX
// local attestation, which only verifies within a platform), and one set
// of boot caches, each shard owning DevicesPerShard boards behind its own
// fleet manager and scheduler. This is the deployment salus-server -shards,
// TestFederationGate and the bench module's fed-tenants workload run.
type LocalSpec struct {
	// Shards and DevicesPerShard size the tier; both must be >= 1.
	Shards          int
	DevicesPerShard int
	// Kernel every board deploys; one Seed across the federation keeps one
	// CL digest region-wide (prepared-cache hits, identical measurements
	// for the hand-off).
	Kernel accel.Kernel
	Seed   int64
	// Timing applies to every board (zero selects core.FastTiming).
	Timing core.Timing
	// Scheduler tunes each shard's pool identically.
	Scheduler sched.Config
	// Federation tunes the front tier (ring, spill threshold, links).
	Federation Config
	// RemoteHandshake leaves the root shard's systems unbooted for the
	// data owner's attest+provision over the federation gateway (the
	// salus-server -shards path). False boots them owner-side in process
	// and returns the shared data key (the bench/test path).
	RemoteHandshake bool
	// ShardAddrs optionally records each shard's gateway address in
	// routing answers; missing entries stay empty.
	ShardAddrs []string
}

// LocalDeployment is a built federation plus the handles its builder owes
// the caller.
type LocalDeployment struct {
	Fed *Federation
	// Key is the shared data key (owner boot only; nil with
	// RemoteHandshake).
	Key []byte
	// RootSystems are the root shard's members — the only systems the data
	// owner ever attests. With RemoteHandshake they are unbooted and await
	// the gateway handshake; otherwise they are booted and already
	// adopted.
	RootSystems []*core.System
	// Managers lists every shard's fleet manager, root first.
	Managers []*fleet.Manager

	// The shared region fabric, kept so late joiners (JoinShard) ride the
	// same platform and caches as the original members.
	spec     LocalSpec
	mfr      *manufacturer.Service
	host     *sgx.Platform
	prepared *smapp.PreparedCache
	quotes   *smapp.QuotePool
}

// Close tears the whole tier down.
func (d *LocalDeployment) Close() { d.Fed.Close() }

// JoinShard adds a brand-new sibling shard to the running federation on
// the shared region fabric: same platform (so the hand-off's local
// attestation verifies), same kernel and seed (same CL digest, warm boot
// caches). The shard starts unkeyed and joins the serving set the first
// time the ring routes it work.
func (d *LocalDeployment) JoinShard(id, addr string, devices int) (*fleet.Manager, error) {
	mgr, err := fleet.New(fleet.Config{
		Kernel:       d.spec.Kernel,
		Seed:         d.spec.Seed,
		Timing:       d.spec.Timing,
		DNAPrefix:    "JOIN-" + id,
		Manufacturer: d.mfr,
		HostPlatform: d.host,
		Prepared:     d.prepared,
		Quotes:       d.quotes,
		Scheduler:    d.spec.Scheduler,
	})
	if err != nil {
		return nil, err
	}
	if err := d.Fed.AddSiblingShard(id, mgr, addr, devices); err != nil {
		mgr.Close()
		return nil, err
	}
	d.Managers = append(d.Managers, mgr)
	return mgr, nil
}

// BuildLocal assembles the shards of a LocalSpec. Shard IDs are
// "gw0".."gwN-1"; gw0 is the federation root.
func BuildLocal(spec LocalSpec) (*LocalDeployment, error) {
	if spec.Shards < 1 || spec.DevicesPerShard < 1 {
		return nil, fmt.Errorf("federation: need >=1 shard and >=1 device per shard")
	}
	if spec.Kernel == nil {
		return nil, fmt.Errorf("federation: no kernel configured")
	}
	mfr, err := manufacturer.New()
	if err != nil {
		return nil, err
	}
	host, err := sgx.NewPlatform(mfr.Authority())
	if err != nil {
		return nil, err
	}
	prepared := smapp.NewPreparedCache()
	quotes := smapp.NewQuotePool()

	fed := New(spec.Federation)
	d := &LocalDeployment{Fed: fed, spec: spec, mfr: mfr, host: host, prepared: prepared, quotes: quotes}
	addr := func(i int) string {
		if i < len(spec.ShardAddrs) {
			return spec.ShardAddrs[i]
		}
		return ""
	}
	for i := 0; i < spec.Shards; i++ {
		mgr, err := fleet.New(fleet.Config{
			Kernel:       spec.Kernel,
			Seed:         spec.Seed,
			Timing:       spec.Timing,
			DNAPrefix:    fmt.Sprintf("GW%d", i),
			Manufacturer: mfr,
			HostPlatform: host,
			Prepared:     prepared,
			Quotes:       quotes,
			Scheduler:    spec.Scheduler,
		})
		if err != nil {
			fed.Close()
			return nil, err
		}
		d.Managers = append(d.Managers, mgr)
		id := fmt.Sprintf("gw%d", i)
		if i == 0 {
			systems, err := fed.AddRootShard(id, mgr, addr(i), spec.DevicesPerShard)
			if err != nil {
				mgr.Close()
				fed.Close()
				return nil, err
			}
			d.RootSystems = systems
			continue
		}
		if err := fed.AddSiblingShard(id, mgr, addr(i), spec.DevicesPerShard); err != nil {
			mgr.Close()
			fed.Close()
			return nil, err
		}
	}
	if !spec.RemoteHandshake {
		key, err := sched.BootSharedParallel(d.RootSystems)
		if err != nil {
			fed.Close()
			return nil, err
		}
		for _, sys := range d.RootSystems {
			if err := d.Managers[0].Adopt(sys); err != nil {
				fed.Close()
				return nil, err
			}
		}
		d.Key = key
	}
	return d, nil
}
