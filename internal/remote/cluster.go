package remote

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"salus/internal/core"
	"salus/internal/cryptoutil"
	"salus/internal/federation"
	"salus/internal/metrics"
	"salus/internal/rpc"
	"salus/internal/sched"
	"salus/internal/sgx"
)

// --- Gateway protocol --------------------------------------------------------
//
// Every gateway speaks one dialect, the Cluster.* verbs, whatever it
// fronts: one board is a pool of one, a pool is a region of one shard. The
// data owner attests every device of the pool it is shown individually —
// there is no transitive trust between boards — then provisions one shared
// data key to all of them (Cluster.Boot, Cluster.Provision), after which a
// sealed job (Cluster.RunJob, Cluster.RunBatch) runs wherever the gateway
// places it. An elastic gateway adds Cluster.Scale / Cluster.Drain
// (fleetgw.go); a gateway fronting a routing ring adds Cluster.Route /
// Cluster.Handoff (fedgw.go).
//
// The gateway is untrusted plumbing (it runs outside the enclaves, like the
// RPC modules in Figure 7): the quotes are signed, the key copies are
// sealed to attested enclaves, and the job payloads are AES-GCM under the
// provisioned key. It can deny service; it cannot read or forge anything.

// ClusterBootRequest carries the data owner's RA challenge for the pool.
type ClusterBootRequest struct {
	Nonce []byte `json:"nonce"`
}

// ClusterBootResponse carries one deferred quote per device, in the
// gateway's fixed device order.
type ClusterBootResponse struct {
	Quotes []sgx.Quote `json:"quotes"`
}

// ProvisionRequest carries the data key sealed to one device.
type ProvisionRequest struct {
	SenderPub []byte `json:"sender_pub"`
	Sealed    []byte `json:"sealed"`
}

// ClusterProvisionRequest carries one sealed copy of the shared data key
// per device, in the same order as the boot quotes.
type ClusterProvisionRequest struct {
	Provisions []ProvisionRequest `json:"provisions"`
}

// JobRequest carries one sealed job. It and the three messages below travel
// in their own binary form (wire.go); the JSON tags describe the same fields
// for logs and tools, and are what the binary form is tested against.
type JobRequest struct {
	Kernel      string    `json:"kernel"`
	Params      [4]uint64 `json:"params"`
	SealedInput []byte    `json:"sealed_input"`
	// QoS fields (see QoS); all optional — empty means anonymous tenant,
	// ClassStandard, no deadline.
	Tenant         string `json:"tenant,omitempty"`
	Class          string `json:"class,omitempty"`
	DeadlineMillis int64  `json:"deadline_ms,omitempty"`
	// Key names the session for a ring-fronting gateway, which hashes
	// tenant + key to a home shard; other gateways ignore it.
	Key string `json:"key,omitempty"`
}

// JobResponse carries the sealed result. A ring-fronting gateway also
// reports the placement it chose, so clients (and the bench) can observe
// routing hit rate and spill-over without trusting extra state.
type JobResponse struct {
	SealedOutput []byte `json:"sealed_output"`
	Shard        string `json:"shard,omitempty"`
	Spilled      bool   `json:"spilled,omitempty"`
}

// BatchJob is one sealed job inside a batch request.
type BatchJob struct {
	Params      [4]uint64 `json:"params"`
	SealedInput []byte    `json:"sealed_input"`
}

// BatchRequest carries a whole batch of sealed jobs for one kernel in a
// single RPC frame — one length prefix, one envelope, one scheduler
// hand-off, one routing decision — instead of one round trip per job.
type BatchRequest struct {
	Kernel string     `json:"kernel"`
	Jobs   []BatchJob `json:"jobs"`
	// QoS and routing fields; see JobRequest. One contract and one
	// placement cover the whole batch.
	Tenant         string `json:"tenant,omitempty"`
	Class          string `json:"class,omitempty"`
	DeadlineMillis int64  `json:"deadline_ms,omitempty"`
	Key            string `json:"key,omitempty"`
}

// BatchJobResult is one job's outcome, index-aligned with the request.
// Jobs fail individually (an oversize input, a device-side rejection)
// without failing their batch-mates.
type BatchJobResult struct {
	SealedOutput []byte `json:"sealed_output,omitempty"`
	Error        string `json:"error,omitempty"`
}

// BatchResponse carries every job's result in request order, plus the
// batch's placement from a ring-fronting gateway.
type BatchResponse struct {
	Results []BatchJobResult `json:"results"`
	Shard   string           `json:"shard,omitempty"`
	Spilled bool             `json:"spilled,omitempty"`
}

// ClusterStatsResponse snapshots every device behind the gateway; a
// ring-fronting gateway adds its routing and shard snapshot.
type ClusterStatsResponse struct {
	Devices []sched.DeviceStats `json:"devices"`
	Ring    *federation.Stats   `json:"ring,omitempty"`
}

// ClusterMetricsResponse carries the gateway process's whole metrics
// registry: every counter, gauge, and latency histogram the instrumented
// layers (rpc, sched, fleet, smapp, core) export. `salus-client top` polls
// this alongside Cluster.Stats.
type ClusterMetricsResponse struct {
	Metrics metrics.Snapshot `json:"metrics"`
}

// backend is where a gateway sends sealed jobs: straight into one
// scheduler (sch), or through a federation's ring and spill-over (fed,
// which takes precedence when set).
type backend struct {
	sch *sched.Scheduler
	fed *federation.Federation
}

// submit hands sealed jobs of one session to the backend as one submission
// and reports the placement a ring chose (none for a plain scheduler).
func (b backend) submit(tenant, key string, jobs []sched.Job, opt sched.SubmitOptions) (futs []*sched.Future, shard string, spilled bool, err error) {
	if b.fed == nil {
		return b.sch.Submit(jobs, opt), "", false, nil
	}
	return b.fed.SubmitBatch(tenant, key, jobs, opt)
}

func (b backend) stats() ClusterStatsResponse {
	if b.fed == nil {
		return ClusterStatsResponse{Devices: b.sch.Stats()}
	}
	ring := b.fed.Stats()
	return ClusterStatsResponse{Devices: b.fed.AllDeviceStats(), Ring: &ring}
}

// ServeCluster exposes a pool's gateway on addr. The systems must be
// freshly constructed (not yet booted); after a successful
// Cluster.Provision they are registered into sch and jobs flow.
func ServeCluster(systems []*core.System, sch *sched.Scheduler, addr string, opts ...GatewayOption) (*rpc.Server, string, error) {
	if len(systems) == 0 {
		return nil, "", fmt.Errorf("remote: empty cluster")
	}
	return listen(newGateway(systems, sch.Register, backend{sch: sch}, opts), addr)
}

// listen binds srv to addr (use "127.0.0.1:0" to pick a free port) and
// returns it with the bound address.
func listen(srv *rpc.Server, addr string) (*rpc.Server, string, error) {
	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, "", err
	}
	return srv, bound, nil
}

// newGateway builds the one server body every gateway shares: the
// idempotent owner handshake over a fixed initial device order, then the
// job, stats and metrics verbs over b.
//
// register is called once per device, serialised under the handshake lock,
// after the whole pool finished provisioning: the scheduler for a plain
// cluster, fleet adoption for an elastic one, root-shard adoption for a
// federation.
//
// Boot and Provision are retry-safe: a client whose connection broke
// mid-handshake can re-dial and resend the same request. A replayed Boot
// under the original nonce returns the cached quotes (re-signing the same
// deterministic response leaks nothing); a partially applied Boot or
// Provision resumes from the first unfinished device; a replayed Provision
// returns success without double-registering anything. Only *conflicting*
// replays — a different nonce, a different key material — are refused.
func newGateway(systems []*core.System, register func(*core.System) error, b backend, opts []GatewayOption) *rpc.Server {
	var o gatewayOptions
	for _, opt := range opts {
		opt(&o)
	}
	adm := o.admission
	srv := rpc.NewServer()

	// Handshake state. RPC handlers run concurrently (one goroutine per
	// request), so every mutation of the pool is serialised here.
	var (
		mu         sync.Mutex
		bootNonce  []byte
		bootQuotes []sgx.Quote
		booted     int // devices through BootAndQuote
		provFP     []byte
		provided   int // devices through FinishProvision
		registered int // devices handed to register
	)
	srv.Handle("Cluster.Boot", rpc.Typed(func(in ClusterBootRequest) (ClusterBootResponse, error) {
		mu.Lock()
		defer mu.Unlock()
		// The nonce arrives over RPC from an unauthenticated caller: a
		// short-circuiting compare would let an attacker probe the real
		// owner's challenge byte by byte through response timing.
		if booted > 0 && !cryptoutil.ConstantTimeEqual(in.Nonce, bootNonce) {
			return ClusterBootResponse{}, fmt.Errorf("cluster already booted under a different nonce")
		}
		if booted == 0 {
			bootNonce = append([]byte(nil), in.Nonce...)
			bootQuotes = make([]sgx.Quote, len(systems))
		}
		for ; booted < len(systems); booted++ {
			q, err := systems[booted].BootAndQuote(in.Nonce)
			if err != nil {
				return ClusterBootResponse{}, fmt.Errorf("device %d (%s): %w", booted, systems[booted].Device.DNA(), err)
			}
			bootQuotes[booted] = q
		}
		return ClusterBootResponse{Quotes: bootQuotes}, nil
	}))
	srv.Handle("Cluster.Provision", rpc.Typed(func(in ClusterProvisionRequest) (struct{}, error) {
		if len(in.Provisions) != len(systems) {
			return struct{}{}, fmt.Errorf("got %d provisions for %d devices", len(in.Provisions), len(systems))
		}
		raw, err := json.Marshal(in)
		if err != nil {
			return struct{}{}, err
		}
		fp := sha256.Sum256(raw)
		mu.Lock()
		defer mu.Unlock()
		// Provision payloads carry sealed key material; the replay
		// fingerprint check must not leak prefix-match length to a caller
		// replaying candidate payloads.
		if provided > 0 && !cryptoutil.ConstantTimeEqual(fp[:], provFP) {
			return struct{}{}, fmt.Errorf("cluster already provisioned with different key material")
		}
		provFP = fp[:]
		for ; provided < len(systems); provided++ {
			p := in.Provisions[provided]
			if err := systems[provided].FinishProvision(p.SenderPub, p.Sealed); err != nil {
				return struct{}{}, fmt.Errorf("device %d: %w", provided, err)
			}
		}
		// Only a fully provisioned pool starts serving: a device that
		// failed provisioning never sees a job, and a replayed Provision
		// never registers a device twice.
		for ; registered < len(systems); registered++ {
			if err := register(systems[registered]); err != nil {
				return struct{}{}, fmt.Errorf("device %d: %w", registered, err)
			}
		}
		return struct{}{}, nil
	}))

	srv.Handle("Cluster.RunJob", rpc.Typed(func(in JobRequest) (JobResponse, error) {
		opt, err := admit(adm, in.Tenant, in.Class, in.DeadlineMillis, 1)
		if err != nil {
			return JobResponse{}, err
		}
		job := sched.Job{Kernel: in.Kernel, Params: in.Params, Input: in.SealedInput, Sealed: true}
		futs, shard, spilled, err := b.submit(in.Tenant, in.Key, []sched.Job{job}, opt)
		if err != nil {
			return JobResponse{}, err
		}
		out, err := futs[0].Wait()
		if err != nil {
			return JobResponse{}, err
		}
		return JobResponse{SealedOutput: out, Shard: shard, Spilled: spilled}, nil
	}))
	srv.Handle("Cluster.RunBatch", rpc.Typed(func(in BatchRequest) (BatchResponse, error) {
		if len(in.Jobs) == 0 {
			return BatchResponse{}, fmt.Errorf("remote: empty batch")
		}
		opt, err := admit(adm, in.Tenant, in.Class, in.DeadlineMillis, len(in.Jobs))
		if err != nil {
			return BatchResponse{}, err
		}
		jobs := make([]sched.Job, len(in.Jobs))
		for i, j := range in.Jobs {
			jobs[i] = sched.Job{Kernel: in.Kernel, Params: j.Params, Input: j.SealedInput, Sealed: true}
		}
		futs, shard, spilled, err := b.submit(in.Tenant, in.Key, jobs, opt)
		if err != nil {
			return BatchResponse{}, err
		}
		resp := BatchResponse{Results: make([]BatchJobResult, len(futs)), Shard: shard, Spilled: spilled}
		for i, f := range futs {
			out, err := f.Wait()
			if err != nil {
				resp.Results[i].Error = err.Error()
			} else {
				resp.Results[i].SealedOutput = out
			}
		}
		return resp, nil
	}))
	srv.Handle("Cluster.Stats", rpc.Typed(func(struct{}) (ClusterStatsResponse, error) {
		return b.stats(), nil
	}))
	srv.Handle("Cluster.Metrics", rpc.Typed(func(struct{}) (ClusterMetricsResponse, error) {
		return ClusterMetricsResponse{Metrics: metrics.Default().Snapshot()}, nil
	}))
	return srv
}

// admit screens one request costing cost jobs and maps its wire QoS fields
// onto scheduler options. An unknown class is a deliberate rejection, not a
// default; a non-nil adm applies the per-tenant token buckets and the
// live-p99 overload shed before the work reaches a scheduler.
func admit(adm *Admission, tenant, class string, deadlineMillis int64, cost int) (sched.SubmitOptions, error) {
	c, ok := sched.ClassByName(class)
	if !ok {
		return sched.SubmitOptions{}, fmt.Errorf("remote: unknown class %q", class)
	}
	opt := sched.SubmitOptions{Class: c}
	if deadlineMillis > 0 {
		opt.Deadline = time.Now().Add(time.Duration(deadlineMillis) * time.Millisecond)
	}
	if adm != nil {
		if err := adm.Admit(tenant, c, cost); err != nil {
			return sched.SubmitOptions{}, err
		}
	}
	return opt, nil
}
