package main

import (
	"fmt"
	"time"

	"salus/internal/accel"
	"salus/internal/client"
	"salus/internal/core"
	"salus/internal/cryptoutil"
	"salus/internal/federation"
	"salus/internal/fleet"
	"salus/internal/fpga"
	"salus/internal/manufacturer"
	"salus/internal/remote"
	"salus/internal/rpc"
	"salus/internal/sched"
)

const loopback = "127.0.0.1:0"

// session is the part of ClusterSession and FederationSession the closed
// loops drive.
type session interface {
	runJob(i int, j *jobInput) ([]byte, error)
	runBatch(i int, jobs []remote.BatchInput) ([]remote.BatchResult, error)
}

// closers is a stack of teardown steps.
type closers []func()

func (c *closers) onClose(fn func()) { *c = append(*c, fn) }

// close runs the steps newest first; a second call is a no-op.
func (c *closers) close() {
	for i := len(*c) - 1; i >= 0; i-- {
		(*c)[i]()
	}
	*c = nil
}

// rig is one deployed stack with an attested owner session on top.
type rig struct {
	closers
	sess     session
	systems  []*core.System   // the owner-attested systems
	managers []*fleet.Manager // fleet-managed pools (their members may grow)
	scheds   []*sched.Scheduler
	fed      *federation.Federation
	attest   time.Duration // owner handshake (Boot + verify + Provision)
}

// serving lists every system that can currently run a job.
func (r *rig) serving() []*core.System {
	if len(r.managers) == 0 {
		return r.systems
	}
	var out []*core.System
	for _, m := range r.managers {
		for _, dna := range m.Members() {
			out = append(out, m.Systems(dna)...)
		}
	}
	return out
}

func expectationsOf(systems []*core.System) []client.Expectations {
	exps := make([]client.Expectations, len(systems))
	for i, sys := range systems {
		exps[i] = sys.Expectations()
	}
	return exps
}

// newBoards builds n unbooted single-partition boards sharing one
// manufacturer, as a CSP's pool does.
func newBoards(n int, prefix string, timing core.Timing) ([]*core.System, error) {
	mfr, err := manufacturer.New()
	if err != nil {
		return nil, err
	}
	systems := make([]*core.System, n)
	for i := range systems {
		systems[i], err = core.NewSystem(core.SystemConfig{
			Kernel:       accel.Conv{},
			Seed:         7,
			DNA:          fpga.DNA(fmt.Sprintf("%s-%02d", prefix, i)),
			Manufacturer: mfr,
			Timing:       timing,
		})
		if err != nil {
			return nil, err
		}
	}
	return systems, nil
}

type clusterSession struct{ s *remote.ClusterSession }

func (c clusterSession) runJob(_ int, j *jobInput) ([]byte, error) {
	return c.s.RunJob("Conv", j.params, j.input)
}

func (c clusterSession) runBatch(_ int, jobs []remote.BatchInput) ([]remote.BatchResult, error) {
	return c.s.RunBatch("Conv", jobs)
}

// deployCluster is the small/bulk/batch-cluster stack: loopback TCP ->
// remote.ServeCluster -> sched -> 2 boards, RealJobLatency 0.
func deployCluster() (_ *rig, err error) {
	r := &rig{}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	systems, err := newBoards(2, "CLU", core.Timing{})
	if err != nil {
		return nil, err
	}
	sch := sched.New(sched.Config{})
	r.onClose(sch.Close)
	srv, addr, err := remote.ServeCluster(systems, sch, loopback)
	if err != nil {
		return nil, err
	}
	r.onClose(func() { srv.Close() })
	sess, err := remote.DialCluster(addr, expectationsOf(systems))
	if err != nil {
		return nil, err
	}
	r.onClose(func() { sess.Close() })
	t0 := time.Now()
	if err := sess.Attest(); err != nil {
		return nil, err
	}
	r.attest = time.Since(t0)
	r.sess, r.systems, r.scheds = clusterSession{sess}, systems, []*sched.Scheduler{sch}
	return r, nil
}

// Federation sessions carry one tenant per session and a front tier
// accepts one owner handshake, so the 16 tenants x 4096 keys are folded
// into the session key ("tNN/kNNNN"); the ring hashes tenant and key
// together either way.
const (
	fedTenants = 16
	fedKeys    = 4096
)

type fedSession struct {
	s    *remote.FederationSession
	keys []string
}

func (f fedSession) runJob(i int, j *jobInput) ([]byte, error) {
	out, _, err := f.s.RunJob(f.keys[i%len(f.keys)], "Conv", j.params, j.input)
	return out, err
}

func (f fedSession) runBatch(i int, jobs []remote.BatchInput) ([]remote.BatchResult, error) {
	res, _, err := f.s.RunBatch(f.keys[i%len(f.keys)], "Conv", jobs)
	return res, err
}

// fedSpec is the fed-tenants region: 3 shards x 2 boards.
func fedSpec(remoteHandshake bool) federation.LocalSpec {
	return federation.LocalSpec{
		Shards: 3, DevicesPerShard: 2, Kernel: accel.Conv{}, Seed: 7,
		RemoteHandshake: remoteHandshake,
	}
}

// deployFederation is the fed-tenants stack: loopback TCP ->
// remote.ServeFederation -> ring/spill -> 3 shards x 2 boards, the owner
// attesting only the root shard.
func deployFederation(keys []string) (_ *rig, err error) {
	r := &rig{}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	d, err := federation.BuildLocal(fedSpec(true))
	if err != nil {
		return nil, err
	}
	r.onClose(d.Close)
	srv, addr, err := remote.ServeFederation(d.Fed, d.RootSystems, loopback)
	if err != nil {
		return nil, err
	}
	r.onClose(func() { srv.Close() })
	sess, err := remote.DialFederation(addr, expectationsOf(d.RootSystems))
	if err != nil {
		return nil, err
	}
	r.onClose(func() { sess.Close() })
	t0 := time.Now()
	if err := sess.Attest(); err != nil {
		return nil, err
	}
	r.attest = time.Since(t0)
	r.sess, r.fed = fedSession{sess, keys}, d.Fed
	for _, m := range d.Managers {
		r.scheds = append(r.scheds, m.Scheduler())
	}
	r.systems, r.managers = d.RootSystems, d.Managers
	return r, nil
}

// ownerClient drives a cluster-dialect gateway with the exported wire
// types. ClusterSession carries one QoS per session and a gateway accepts
// one owner handshake, so the open loop — which mixes classes on one
// deployment — performs the same handshake itself and sets the class per
// request. Jobs are spread over ownerConns connections: the rpc server
// runs at most 64 handlers per connection, fewer than the 68 jobs the
// scheduler's queues and partitions hold, so the overload one connection
// can offer never reaches the scheduler.
type ownerClient struct {
	conns []*rpc.Client
	key   []byte
}

const ownerConns = 4

func (o *ownerClient) close() {
	for _, c := range o.conns {
		c.Close()
	}
}

func dialOwner(addr string, exps []client.Expectations) (_ *ownerClient, err error) {
	o := &ownerClient{}
	defer func() {
		if err != nil {
			o.close()
		}
	}()
	for i := 0; i < ownerConns; i++ {
		c, err := rpc.Dial(addr)
		if err != nil {
			return nil, err
		}
		o.conns = append(o.conns, c)
	}
	c := o.conns[0]
	nonce := client.New(exps[0]).NewNonce()
	var boot remote.ClusterBootResponse
	if err := c.Call("Cluster.Boot", remote.ClusterBootRequest{Nonce: nonce}, &boot); err != nil {
		return nil, err
	}
	if len(boot.Quotes) != len(exps) {
		return nil, fmt.Errorf("gateway returned %d quotes for %d systems", len(boot.Quotes), len(exps))
	}
	key := cryptoutil.RandomKey(16)
	req := remote.ClusterProvisionRequest{Provisions: make([]remote.ProvisionRequest, len(exps))}
	for i, q := range boot.Quotes {
		pub, err := client.New(exps[i]).VerifyRAResponse(nonce, q)
		if err != nil {
			return nil, err
		}
		senderPub, sealed, err := client.ProvisionDataKey(pub, key)
		if err != nil {
			return nil, err
		}
		req.Provisions[i] = remote.ProvisionRequest{SenderPub: senderPub, Sealed: sealed}
	}
	if err := c.Call("Cluster.Provision", req, nil); err != nil {
		return nil, err
	}
	o.key = key
	return o, nil
}

// run seals job number i, sends it at class, and opens the result.
func (o *ownerClient) run(i int, j *jobInput, class sched.Class) ([]byte, error) {
	sealed, err := cryptoutil.Seal(o.key, j.input, []byte("job-input"))
	if err != nil {
		return nil, err
	}
	var resp remote.JobResponse
	req := remote.JobRequest{Kernel: "Conv", Params: j.params, SealedInput: sealed, Tenant: "bench", Class: class.String()}
	if err := o.conns[i%len(o.conns)].Call("Cluster.RunJob", req, &resp); err != nil {
		return nil, err
	}
	return cryptoutil.Open(o.key, resp.SealedOutput, []byte("job-output"))
}

// Open-overload deployment constants: 2 boards x 2 RPs, 2 ms slept per
// job, so capacity is ~4 / 2.1 ms regardless of CPU speed.
const (
	openService    = 2 * time.Millisecond
	openQueueDepth = 16
)

// deployFleetGateway is the open-overload stack: loopback TCP ->
// remote.ServeFleet -> admission (sized never to limit) -> sched with a
// 16-deep queue per partition -> 2 boards x 2 RPs.
func deployFleetGateway() (_ *rig, _ *ownerClient, err error) {
	r := &rig{}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	timing := core.FastTiming()
	timing.RealJobLatency = openService
	mgr, err := fleet.New(fleet.Config{
		Kernel: accel.Conv{}, Seed: 7, Timing: timing, DNAPrefix: "OPN",
		RPsPerDevice: 2,
		Scheduler:    sched.Config{QueueDepth: openQueueDepth},
	})
	if err != nil {
		return nil, nil, err
	}
	r.onClose(mgr.Close)
	adm := remote.NewAdmission(remote.AdmissionConfig{TenantRate: 1e6, TenantBurst: 1e6, MaxP99: 10 * time.Second})
	srv, systems, addr, err := remote.ServeFleet(mgr, 2, loopback, remote.WithAdmission(adm))
	if err != nil {
		return nil, nil, err
	}
	r.onClose(func() { srv.Close() })
	t0 := time.Now()
	oc, err := dialOwner(addr, expectationsOf(systems))
	if err != nil {
		return nil, nil, err
	}
	r.attest = time.Since(t0)
	r.onClose(oc.close)
	r.systems, r.managers, r.scheds = systems, []*fleet.Manager{mgr}, []*sched.Scheduler{mgr.Scheduler()}
	return r, oc, nil
}
