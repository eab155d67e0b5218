package remote

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"salus/internal/bufpool"
	"salus/internal/core"
	"salus/internal/cryptoutil"
	"salus/internal/federation"
	"salus/internal/fpga"
	"salus/internal/metrics"
	"salus/internal/rpc"
	"salus/internal/sched"
	"salus/internal/sgx"
	"salus/internal/userapp"
)

// --- Gateway protocol --------------------------------------------------------
//
// Every gateway speaks one dialect, the Cluster.* verbs, whatever it
// fronts: one board is a pool of one, a pool is a region of one shard, and
// one server body (Serve) answers every verb. The data owner attests every
// device of the root shard individually — there is no transitive trust
// between boards — then provisions one shared data key to all of them
// (Cluster.Boot, Cluster.Provision), after which a sealed job
// (Cluster.RunJob, Cluster.RunBatch) runs wherever the ring places it.
// Cluster.Scale / Cluster.Drain change the root shard's membership;
// Cluster.Route / Cluster.Handoff answer routing and sibling key requests.
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
	// Key names the session: the gateway hashes tenant + key to a home
	// shard, which on a one-shard region is always the same one.
	Key string `json:"key,omitempty"`
}

// JobResponse carries the sealed result. A region of several shards also
// reports the placement it chose, so clients (and the bench) can observe
// routing hit rate and spill-over without trusting extra state; one shard
// reports none.
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
// batch's placement as in JobResponse.
type BatchResponse struct {
	Results []BatchJobResult `json:"results"`
	Shard   string           `json:"shard,omitempty"`
	Spilled bool             `json:"spilled,omitempty"`
}

// jobResponses recycles the gateway's RunJob results, so a served job
// boxes no response of its own into the rpc layer's result.
var jobResponses = sync.Pool{New: func() any { return new(JobResponse) }}

// Release hands the sealed output back to bufpool and the response itself
// back to its pool; rpc calls it once the gateway's response is written
// (rpc.Handler's release rule). Only the gateway's server path releases: a
// client's outputs belong to the data owner.
func (r *JobResponse) Release() {
	bufpool.Put(r.SealedOutput)
	*r = JobResponse{}
	jobResponses.Put(r)
}

// Release hands every job's sealed output back, as JobResponse.Release.
func (r BatchResponse) Release() {
	for _, res := range r.Results {
		bufpool.Put(res.SealedOutput)
	}
}

// ClusterStatsResponse snapshots every device behind the gateway, every
// shard's in shard order, and the ring's routing and shard snapshot.
type ClusterStatsResponse struct {
	Devices []sched.DeviceStats `json:"devices"`
	Ring    federation.Stats    `json:"ring"`
}

// ClusterMetricsResponse carries the gateway process's whole metrics
// registry: every counter, gauge, and latency histogram the instrumented
// layers (rpc, sched, fleet, smapp, core) export. `salus-client top` polls
// this alongside Cluster.Stats.
type ClusterMetricsResponse struct {
	Metrics metrics.Snapshot `json:"metrics"`
}

// ScaleRequest asks the root shard's fleet to grow (Delta > 0) or shrink
// (Delta < 0).
type ScaleRequest struct {
	Delta int `json:"delta"`
}

// ScaleResponse reports the membership change actually applied.
type ScaleResponse struct {
	Added   []fpga.DNA          `json:"added,omitempty"`
	Removed []fpga.DNA          `json:"removed,omitempty"`
	Devices []sched.DeviceStats `json:"devices"`
}

// DrainDeviceRequest drains one board; with Remove set it is also
// decommissioned once (bounded) draining finishes.
type DrainDeviceRequest struct {
	DNA           fpga.DNA `json:"dna"`
	TimeoutMillis int64    `json:"timeout_millis"`
	Remove        bool     `json:"remove"`
}

// RouteRequest asks where a session lives.
type RouteRequest struct {
	Tenant string `json:"tenant,omitempty"`
	Key    string `json:"key"`
}

// RouteResponse names the session's home shard, its gateway address when
// published, and the routing-table epoch the answer is valid for — a
// client holding a stale epoch should re-route.
type RouteResponse struct {
	Shard string `json:"shard"`
	Addr  string `json:"addr,omitempty"`
	Epoch uint64 `json:"epoch"`
}

// HandoffRequest is a recipient enclave's local-attestation key request
// relayed to this region (core.System.BeginAdoptDataKey wire form). The
// report pins the recipient's measurement and binds its ephemeral public
// key into the report data, so the relaying hosts cannot swap either.
type HandoffRequest struct {
	Report       sgx.Report `json:"report"`
	RecipientPub []byte     `json:"recipient_pub"`
}

// HandoffGrant is the donor enclave's answer: the region's data key sealed
// under a one-pass ECDH channel toward the attested recipient key
// (userapp.KeyGrant wire form, fed to core.System.FinishAdoptDataKey).
type HandoffGrant struct {
	SenderPub []byte `json:"sender_pub"`
	Sealed    []byte `json:"sealed"`
}

// Serve exposes a gateway over fed on addr; it is the only constructor of
// a gateway server. A lone pool or fleet is a one-shard federation
// (federation.Single), a region is N shards, and every gateway serves
// every Cluster.* verb.
//
// The owner handshake runs against owner only — the root shard's systems,
// fresh and not yet booted: the owner attests and provisions them, each is
// then adopted into the root shard's manager, and every other shard is
// keyed enclave to enclave (Cluster.Handoff, or the in-process hand-off on
// first routing) with no further owner round trip. Jobs go through the
// ring. Scale and Drain act on the root shard's manager, so a fixed pool
// (fleet.Fixed) refuses them through its own device bounds.
//
// Boot and Provision are retry-safe: a client whose connection broke
// mid-handshake can re-dial and resend the same request. A replayed Boot
// under the original nonce returns the cached quotes (re-signing the same
// deterministic response leaks nothing); a partially applied Boot or
// Provision resumes from the first unfinished device; a replayed Provision
// returns success without adopting anything twice. Only *conflicting*
// replays — a different nonce, a different key material — are refused.
func Serve(fed *federation.Federation, owner []*core.System, addr string, opts ...GatewayOption) (*rpc.Server, string, error) {
	if fed == nil {
		return nil, "", fmt.Errorf("remote: nil federation")
	}
	if len(owner) == 0 {
		return nil, "", fmt.Errorf("remote: no owner systems")
	}
	root := fed.Manager(fed.Root())
	if root == nil {
		return nil, "", fmt.Errorf("remote: federation has no root shard")
	}
	var o gatewayOptions
	for _, opt := range opts {
		opt(&o)
	}
	adm := o.admission
	srv := rpc.NewServer()

	// Handshake state. RPC handlers run concurrently (up to one per handler
	// worker), so every mutation of the pool is serialised here.
	var (
		mu         sync.Mutex
		bootNonce  []byte
		bootQuotes []sgx.Quote
		booted     int // devices through BootAndQuote
		provFP     []byte
		provided   int // devices through FinishProvision
		adopted    int // devices adopted into the root shard
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
			bootQuotes = make([]sgx.Quote, len(owner))
		}
		for ; booted < len(owner); booted++ {
			q, err := owner[booted].BootAndQuote(in.Nonce)
			if err != nil {
				return ClusterBootResponse{}, fmt.Errorf("device %d (%s): %w", booted, owner[booted].Device.DNA(), err)
			}
			bootQuotes[booted] = q
		}
		return ClusterBootResponse{Quotes: bootQuotes}, nil
	}))
	srv.Handle("Cluster.Provision", rpc.Typed(func(in ClusterProvisionRequest) (struct{}, error) {
		if len(in.Provisions) != len(owner) {
			return struct{}{}, fmt.Errorf("got %d provisions for %d devices", len(in.Provisions), len(owner))
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
		for ; provided < len(owner); provided++ {
			p := in.Provisions[provided]
			if err := owner[provided].FinishProvision(p.SenderPub, p.Sealed); err != nil {
				return struct{}{}, fmt.Errorf("device %d: %w", provided, err)
			}
		}
		// Only a fully provisioned pool starts serving: a device that
		// failed provisioning never sees a job, and a replayed Provision
		// never adopts a device twice.
		for ; adopted < len(owner); adopted++ {
			if err := root.Adopt(owner[adopted]); err != nil {
				return struct{}{}, fmt.Errorf("device %d: %w", adopted, err)
			}
		}
		return struct{}{}, nil
	}))

	srv.Handle("Cluster.RunJob", rpc.Typed(func(in JobRequest) (*JobResponse, error) {
		opt, err := admit(adm, in.Tenant, in.Class, in.DeadlineMillis, 1)
		if err != nil {
			return nil, err
		}
		job := sched.Job{Kernel: in.Kernel, Params: in.Params, Input: in.SealedInput, Sealed: true}
		futs, shard, spilled, err := fed.SubmitBatch(in.Tenant, in.Key, []sched.Job{job}, opt)
		if err != nil {
			return nil, err
		}
		out, err := futs[0].Wait()
		if err != nil {
			return nil, err
		}
		resp := jobResponses.Get().(*JobResponse)
		resp.SealedOutput = out
		resp.Shard, resp.Spilled = placed(fed, shard, spilled)
		return resp, nil
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
		futs, shard, spilled, err := fed.SubmitBatch(in.Tenant, in.Key, jobs, opt)
		if err != nil {
			return BatchResponse{}, err
		}
		resp := BatchResponse{Results: make([]BatchJobResult, len(futs))}
		resp.Shard, resp.Spilled = placed(fed, shard, spilled)
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
		return ClusterStatsResponse{Devices: fed.AllDeviceStats(), Ring: fed.Stats()}, nil
	}))
	srv.Handle("Cluster.Metrics", rpc.Typed(func(struct{}) (ClusterMetricsResponse, error) {
		return ClusterMetricsResponse{Metrics: metrics.Default().Snapshot()}, nil
	}))

	// Growth needs no client round trip: a board added by Cluster.Scale
	// boots the same CL (the fleet's prepared-bitstream cache pins one
	// digest) and receives the data key only through the sibling enclave
	// hand-off (core.AdoptDataKeyFrom) from an already-attested user
	// enclave on the same platform with an identical measurement. The host
	// brokers ciphertext; it can deny growth, never mint a rogue member.
	srv.Handle("Cluster.Scale", rpc.Typed(func(in ScaleRequest) (ScaleResponse, error) {
		var resp ScaleResponse
		switch {
		case in.Delta > 0:
			for i := 0; i < in.Delta; i++ {
				dna, err := root.Add()
				if err != nil {
					resp.Devices = root.Stats()
					return resp, fmt.Errorf("grew by %d of %d: %w", i, in.Delta, err)
				}
				resp.Added = append(resp.Added, dna)
			}
		case in.Delta < 0:
			for i, dna := range shrinkOrder(root.Stats(), -in.Delta) {
				if _, err := root.Remove(dna); err != nil {
					resp.Devices = root.Stats()
					return resp, fmt.Errorf("shrank by %d of %d: %w", i, -in.Delta, err)
				}
				resp.Removed = append(resp.Removed, dna)
			}
		}
		resp.Devices = root.Stats()
		return resp, nil
	}))
	srv.Handle("Cluster.Drain", rpc.Typed(func(in DrainDeviceRequest) (ClusterStatsResponse, error) {
		// A drained board is unroutable until re-registered, so a removal
		// the manager would refuse is refused before anything drains.
		if in.Remove {
			if err := root.CanRemove(); err != nil {
				return ClusterStatsResponse{Devices: root.Stats()}, err
			}
		}
		err := root.Scheduler().Drain(in.DNA, time.Duration(in.TimeoutMillis)*time.Millisecond)
		// A drain timeout does not block decommissioning (matching
		// fleet.Remove's semantics); anything else does.
		if err == nil || (in.Remove && errors.Is(err, sched.ErrDrainTimeout)) {
			err = nil
			if in.Remove {
				_, err = root.Remove(in.DNA)
			}
		}
		return ClusterStatsResponse{Devices: root.Stats()}, err
	}))
	srv.Handle("Cluster.Route", rpc.Typed(func(in RouteRequest) (RouteResponse, error) {
		id, shardAddr, epoch, err := fed.Route(in.Tenant, in.Key)
		return RouteResponse{Shard: id, Addr: shardAddr, Epoch: epoch}, err
	}))
	srv.Handle("Cluster.Handoff", rpc.Typed(func(in HandoffRequest) (HandoffGrant, error) {
		grant, err := fed.Grant(userapp.KeyRequest{Report: in.Report, RecipientPub: in.RecipientPub})
		return HandoffGrant{SenderPub: grant.SenderPub, Sealed: grant.Sealed}, err
	}))

	return listen(srv, addr)
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

// placed is the placement a job response reports: none from a one-shard
// region, which has nowhere else to place work, so its responses are the
// bytes a plain pool's always were.
func placed(fed *federation.Federation, shard string, spilled bool) (string, bool) {
	if fed.Ring().Size() < 2 {
		return "", false
	}
	return shard, spilled
}

// shrinkOrder picks n decommission victims: permanently quarantined boards
// first, then quarantined, then the least-loaded healthy boards. Stats
// arrive one row per reconfigurable partition; a board's health is its
// sickest RP, its load the sum over its RPs, and each board is named once
// no matter how many partitions it serves.
func shrinkOrder(stats []sched.DeviceStats, n int) []fpga.DNA {
	type board struct {
		dna    fpga.DNA
		rank   int
		queued int64
	}
	rank := func(ds sched.DeviceStats) int {
		switch {
		case ds.Permanent:
			return 0
		case ds.Quarantined:
			return 1
		default:
			return 2
		}
	}
	byDNA := make(map[fpga.DNA]*board)
	var boards []*board
	for _, ds := range stats {
		b := byDNA[ds.DNA]
		if b == nil {
			b = &board{dna: ds.DNA, rank: rank(ds)}
			byDNA[ds.DNA] = b
			boards = append(boards, b)
		}
		if r := rank(ds); r < b.rank {
			b.rank = r
		}
		b.queued += ds.Queued
	}
	sort.SliceStable(boards, func(i, j int) bool {
		if boards[i].rank != boards[j].rank {
			return boards[i].rank < boards[j].rank
		}
		return boards[i].queued < boards[j].queued
	})
	if n > len(boards) {
		n = len(boards)
	}
	out := make([]fpga.DNA, n)
	for i := 0; i < n; i++ {
		out[i] = boards[i].dna
	}
	return out
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
