package remote

import (
	"crypto/cipher"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"salus/internal/bufpool"
	"salus/internal/client"
	"salus/internal/cryptoutil"
	"salus/internal/federation"
	"salus/internal/fpga"
	"salus/internal/metrics"
	"salus/internal/sched"
)

// QoS is a session's per-job quality-of-service contract, attached to
// every RunJob/RunBatch request so the gateway can rate-limit by tenant,
// schedule by class, and shed expired work.
type QoS struct {
	// Tenant identifies the caller for the gateway's per-tenant token
	// bucket; empty means the anonymous bucket. The gateway also hashes
	// it, with the session key, into the routing identity.
	Tenant string
	// Class is the scheduling band (sched.ClassBatch/Standard/Critical).
	Class sched.Class
	// Deadline, when positive, is the per-job relative deadline: the
	// gateway converts it to an absolute deadline at admission.
	Deadline time.Duration
}

// BatchInput is one plaintext job handed to RunBatch.
type BatchInput struct {
	Params [4]uint64
	Input  []byte
}

// BatchResult is one job's opened outcome, index-aligned with the inputs.
type BatchResult struct {
	Output []byte
	Err    error
}

// Placement reports where one request landed; it is zero from a one-shard
// gateway, which has nowhere else to place work.
type Placement struct {
	Shard   string
	Spilled bool
}

// Session is the data owner's session with a gateway, whatever the gateway
// fronts — one board, a fleet, or a region of shards. It attests the
// devices it holds expectations for, provisions one shared data key, and
// then addresses sealed jobs by session key: the ring places them,
// spill-over moves them, and the hand-off keys new shards, all without the
// session's involvement. It rides a redialing connection stripe (see conn):
// the data key and the QoS contract live here, not in the connection, so
// both survive a reconnect. The session counts its Boot and Provision round
// trips, so tests and benchmarks can assert from the owner's chair that the
// owner made exactly one of each, ever, however many shards end up serving
// the key.
type Session struct {
	conn *conn
	exps []client.Expectations

	// job is what every RunJob and RunBatch reads, with one atomic load and
	// no lock; Attest and SetQoS publish a fresh one under mu.
	job        atomic.Pointer[jobState]
	handshakes atomic.Int32 // Boot and Provision round trips

	mu      sync.Mutex
	nonce   []byte
	dataKey []byte
}

// jobState is the part of a session every job request carries: the data
// key's AEAD (nil before Attest), expanded once at provisioning for sealing
// every job input and opening every job output, and the QoS contract as the
// wire renders it (all zero before SetQoS, which makes the gateway apply its
// defaults).
type jobState struct {
	aead           cipher.AEAD
	tenant, class  string
	deadlineMillis int64
}

// Dial opens a session toward a gateway, pinning the expectations the
// owner verified out of band (developer-published H and measurements,
// CSP-assigned DNAs, manufacturer root): one set per root-shard device —
// the only devices the owner ever verifies — in the gateway's device
// order. A mismatched order fails attestation, since expectations pin each
// device's DNA.
func Dial(addr string, exps []client.Expectations) (*Session, error) {
	if len(exps) == 0 {
		return nil, fmt.Errorf("remote: no device expectations")
	}
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	s := &Session{conn: c, exps: exps}
	s.job.Store(new(jobState))
	return s, nil
}

// publish replaces the session's job state with a copy that set edited.
func (s *Session) publish(set func(*jobState)) {
	s.mu.Lock()
	st := *s.job.Load()
	set(&st)
	s.job.Store(&st)
	s.mu.Unlock()
}

// SetQoS attaches a QoS contract to every subsequent RunJob/RunBatch.
// Sessions that never call it send no QoS fields and the gateway applies
// its defaults (ClassStandard, no deadline, anonymous tenant). The wire
// carries whole milliseconds with 0 meaning "no deadline", so a positive
// deadline is rounded up to at least 1 ms rather than truncated into "none".
func (s *Session) SetQoS(q QoS) {
	deadlineMillis := q.Deadline.Milliseconds()
	if q.Deadline > 0 && deadlineMillis == 0 {
		deadlineMillis = 1
	}
	s.publish(func(st *jobState) {
		st.tenant, st.class, st.deadlineMillis = q.Tenant, q.Class.String(), deadlineMillis
	})
}

// attested returns the job state, or an error before Attest.
func (s *Session) attested() (*jobState, error) {
	st := s.job.Load()
	if st.aead == nil {
		return nil, fmt.Errorf("remote: session not attested")
	}
	return st, nil
}

// Attest attests every device the session holds expectations for with one
// fresh nonce, and — only if all of them verify — provisions one shared
// data key, sealed separately to each device's attested provisioning key.
// All-or-nothing: one bad quote and no device receives the key. Only after
// this returns nil does the owner's data flow.
//
// Attest is retry-safe end to end: the nonce is generated once per session
// and reused on retries, matching the gateway's idempotent Boot handler,
// so an Attest that died to a mid-flight connection loss can simply be
// called again.
func (s *Session) Attest() error {
	s.mu.Lock()
	if s.nonce == nil {
		s.nonce = client.New(s.exps[0]).NewNonce()
	}
	nonce := s.nonce
	s.mu.Unlock()

	var boot ClusterBootResponse
	s.handshakes.Add(1)
	if err := s.conn.call("Cluster.Boot", ClusterBootRequest{Nonce: nonce}, &boot); err != nil {
		return fmt.Errorf("remote: boot: %w", err)
	}
	if len(boot.Quotes) != len(s.exps) {
		return fmt.Errorf("remote: gateway returned %d quotes for %d expected devices", len(boot.Quotes), len(s.exps))
	}
	key := cryptoutil.RandomKey(16)
	aead, err := cryptoutil.NewAEAD(key)
	if err != nil {
		return err
	}
	req := ClusterProvisionRequest{Provisions: make([]ProvisionRequest, len(boot.Quotes))}
	for i, q := range boot.Quotes {
		pub, err := client.New(s.exps[i]).VerifyRAResponse(nonce, q)
		if err != nil {
			return fmt.Errorf("remote: device %d attestation: %w", i, err)
		}
		senderPub, sealed, err := client.ProvisionDataKey(pub, key)
		if err != nil {
			return fmt.Errorf("remote: seal key for device %d: %w", i, err)
		}
		req.Provisions[i] = ProvisionRequest{SenderPub: senderPub, Sealed: sealed}
	}
	s.handshakes.Add(1)
	if err := s.conn.call("Cluster.Provision", req, nil); err != nil {
		return fmt.Errorf("remote: provision: %w", err)
	}
	s.publish(func(st *jobState) { st.aead = aead })
	s.mu.Lock()
	s.dataKey = key
	s.mu.Unlock()
	return nil
}

// Additional data binding sealed job payloads to their direction; the
// enclave side binds the same.
var (
	jobInputAD  = []byte("job-input")
	jobOutputAD = []byte("job-output")
)

// RunJob seals the input under the shared data key into a pooled seal
// buffer, submits it under the session key in a pooled request
// envelope, and opens the sealed result; it also returns the placement the
// gateway reported. Which device ran the job is irrelevant to its safety,
// since every device that can hold the key was attested — by the owner, or
// enclave to enclave — before the key reached it. Sealed jobs are pure and idempotent, so a job lost to a
// broken connection is safely re-submitted over a fresh one.
func (s *Session) RunJob(key, kernel string, params [4]uint64, input []byte) ([]byte, Placement, error) {
	st, err := s.attested()
	if err != nil {
		return nil, Placement{}, err
	}
	// The seal buffer only ever holds ciphertext, and nothing reads it once
	// conn.call has returned.
	buf := bufpool.Get(len(input) + cryptoutil.SealOverhead)[:0]
	req, resp := jobRequests.Get().(*JobRequest), jobResponses.Get().(*JobResponse)
	*req = JobRequest{
		Kernel: kernel, Params: params, SealedInput: cryptoutil.AppendSealWith(buf, st.aead, input, jobInputAD),
		Tenant: st.tenant, Class: st.class, DeadlineMillis: st.deadlineMillis, Key: key,
	}
	err = s.conn.call("Cluster.RunJob", req, resp)
	bufpool.Put(buf)
	sealed, placement := resp.SealedOutput, Placement{Shard: resp.Shard, Spilled: resp.Spilled}
	*req, *resp = JobRequest{}, JobResponse{}
	jobRequests.Put(req)
	jobResponses.Put(resp)
	if err != nil {
		return nil, Placement{}, err
	}
	// The sealed output sits in the client's own exact-size response frame,
	// which nothing else holds: open it in place.
	out, err := cryptoutil.OpenInPlaceWith(st.aead, sealed, jobOutputAD)
	if err != nil {
		return nil, Placement{}, fmt.Errorf("remote: sealed output rejected: %w", err)
	}
	return out, placement, nil
}

// jobRequests recycles the owner's RunJob request envelopes (responses
// share the gateway's pool, jobResponses), so a job boxes neither into
// the rpc call.
var jobRequests = sync.Pool{New: func() any { return new(JobRequest) }}

// RunBatch seals every input, side by side in one pooled seal buffer, and submits
// the whole batch in one RPC frame under one session key — one routing
// decision, one placement returned; the gateway runs it through the
// scheduler's batched path (one sealed register program per chunk on the
// device). Jobs succeed or fail individually — the returned slice is
// index-aligned with jobs — while the error covers whole-batch failures
// (unattested session, unreachable gateway, malformed response).
// Like RunJob, a batch lost to a broken connection is safely re-submitted,
// and every output is opened in place in the response frame.
func (s *Session) RunBatch(key, kernel string, jobs []BatchInput) ([]BatchResult, Placement, error) {
	st, err := s.attested()
	if err != nil {
		return nil, Placement{}, err
	}
	if len(jobs) == 0 {
		return nil, Placement{}, nil
	}
	req := BatchRequest{
		Kernel: kernel, Jobs: make([]BatchJob, len(jobs)),
		Tenant: st.tenant, Class: st.class, DeadlineMillis: st.deadlineMillis, Key: key,
	}
	n := 0
	for _, j := range jobs {
		n += len(j.Input) + cryptoutil.SealOverhead
	}
	buf := bufpool.Get(n)[:0]
	for i, j := range jobs {
		// buf has room for every input, so each seal lands in place.
		start := len(buf)
		buf = cryptoutil.AppendSealWith(buf, st.aead, j.Input, jobInputAD)
		req.Jobs[i] = BatchJob{Params: j.Params, SealedInput: buf[start:]}
	}
	var resp BatchResponse
	err = s.conn.call("Cluster.RunBatch", req, &resp)
	bufpool.Put(buf)
	if err != nil {
		return nil, Placement{}, err
	}
	if len(resp.Results) != len(jobs) {
		return nil, Placement{}, fmt.Errorf("remote: gateway returned %d results for %d jobs", len(resp.Results), len(jobs))
	}
	results := make([]BatchResult, len(jobs))
	for i, r := range resp.Results {
		if r.Error != "" {
			results[i].Err = errors.New(r.Error)
			continue
		}
		out, err := cryptoutil.OpenInPlaceWith(st.aead, r.SealedOutput, jobOutputAD)
		if err != nil {
			results[i].Err = fmt.Errorf("remote: sealed output rejected: %w", err)
			continue
		}
		results[i].Output = out
	}
	return results, Placement{Shard: resp.Shard, Spilled: resp.Spilled}, nil
}

// stats fetches the gateway's Cluster.Stats snapshot.
func (s *Session) stats() (ClusterStatsResponse, error) {
	var resp ClusterStatsResponse
	err := s.conn.call("Cluster.Stats", struct{}{}, &resp)
	return resp, err
}

// DeviceStats fetches the per-device counters of every device behind the
// gateway, every shard's.
func (s *Session) DeviceStats() ([]sched.DeviceStats, error) {
	resp, err := s.stats()
	return resp.Devices, err
}

// Stats fetches the gateway's routing and shard snapshot.
func (s *Session) Stats() (federation.Stats, error) {
	resp, err := s.stats()
	return resp.Ring, err
}

// Route asks the gateway where a session key lives right now.
func (s *Session) Route(key string) (RouteResponse, error) {
	var resp RouteResponse
	err := s.conn.call("Cluster.Route", RouteRequest{Tenant: s.job.Load().tenant, Key: key}, &resp)
	return resp, err
}

// Scale asks the gateway to grow or shrink its root shard. Growth needs no
// new attestation round: the data key reaches new boards only via the
// sibling enclave hand-off, and the returned stats let the owner audit the
// resulting membership. A fixed pool refuses both directions.
func (s *Session) Scale(delta int) (ScaleResponse, error) {
	var resp ScaleResponse
	err := s.conn.call("Cluster.Scale", ScaleRequest{Delta: delta}, &resp)
	return resp, err
}

// Remove decommissions one root-shard board, which a fixed pool refuses:
// the board leaves the pool at once and is reclaimed once its accepted jobs
// have resolved. The call waits for that (bounded by timeout; zero waits
// indefinitely) and reports the drain timeout if the jobs outlast it.
func (s *Session) Remove(dna fpga.DNA, timeout time.Duration) ([]sched.DeviceStats, error) {
	var resp ClusterStatsResponse
	req := RemoveRequest{DNA: dna, TimeoutMillis: timeout.Milliseconds()}
	err := s.conn.call("Cluster.Remove", req, &resp)
	return resp.Devices, err
}

// Metrics fetches the gateway process's aggregate metrics snapshot.
func (s *Session) Metrics() (metrics.Snapshot, error) {
	var resp ClusterMetricsResponse
	err := s.conn.call("Cluster.Metrics", struct{}{}, &resp)
	return resp.Metrics, err
}

// Close releases the session. A call parked in redial backoff returns
// promptly instead of waiting the window out.
func (s *Session) Close() error { return s.conn.close() }
