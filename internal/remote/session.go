package remote

import (
	"crypto/cipher"
	"errors"
	"fmt"
	"sync"
	"time"

	"salus/internal/client"
	"salus/internal/cryptoutil"
	"salus/internal/metrics"
	"salus/internal/sched"
)

// QoS is a session's per-job quality-of-service contract, attached to
// every RunJob/RunBatch request so the gateway can rate-limit by tenant,
// schedule by class, and shed expired work.
type QoS struct {
	// Tenant identifies the caller for the gateway's per-tenant token
	// bucket; empty means the anonymous bucket. A ring-fronting gateway
	// also hashes it, with the session key, into the routing identity.
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

// session is the data owner's session with a gateway, whatever the gateway
// fronts: it attests the devices it holds expectations for, provisions one
// shared data key, and then submits sealed jobs. It rides a redialing
// connection (see conn): the data key and the QoS contract live here, not
// in the connection, so both survive a reconnect. ClusterSession and
// FederationSession are thin exported views over it.
type session struct {
	conn *conn
	exps []client.Expectations

	mu      sync.Mutex
	nonce   []byte
	dataKey []byte
	// dataAEAD is dataKey expanded once, at provisioning, for sealing every
	// job input and opening every job output of the session.
	dataAEAD cipher.AEAD
	qos      QoS
	qosSet   bool
}

// dialSession opens a session toward a gateway, pinning the expectations
// the owner verified out of band (developer-published H and measurements,
// CSP-assigned DNAs, manufacturer root): one set per device the owner
// attests, in the gateway's device order. A mismatched order fails
// attestation, since expectations pin each device's DNA.
func dialSession(addr string, exps []client.Expectations) (*session, error) {
	if len(exps) == 0 {
		return nil, fmt.Errorf("remote: no device expectations")
	}
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return &session{conn: c, exps: exps}, nil
}

// SetQoS attaches a QoS contract to every subsequent RunJob/RunBatch.
// Sessions that never call it send no QoS fields and the gateway applies
// its defaults (ClassStandard, no deadline, anonymous tenant).
func (s *session) SetQoS(q QoS) {
	s.mu.Lock()
	s.qos, s.qosSet = q, true
	s.mu.Unlock()
}

// qosFields renders the session's QoS for a wire request. The wire carries
// whole milliseconds with 0 meaning "no deadline", so a positive deadline
// is rounded up to at least 1 ms rather than truncated into "none".
func (s *session) qosFields() (tenant, class string, deadlineMillis int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.qosSet {
		return "", "", 0
	}
	deadlineMillis = s.qos.Deadline.Milliseconds()
	if s.qos.Deadline > 0 && deadlineMillis == 0 {
		deadlineMillis = 1
	}
	return s.qos.Tenant, s.qos.Class.String(), deadlineMillis
}

// aead returns the provisioned data key's expanded AEAD, or an error
// before Attest.
func (s *session) aead() (cipher.AEAD, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dataAEAD == nil {
		return nil, fmt.Errorf("remote: session not attested")
	}
	return s.dataAEAD, nil
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
func (s *session) Attest() error {
	s.mu.Lock()
	if s.nonce == nil {
		s.nonce = client.New(s.exps[0]).NewNonce()
	}
	nonce := s.nonce
	s.mu.Unlock()

	var boot ClusterBootResponse
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
	if err := s.conn.call("Cluster.Provision", req, nil); err != nil {
		return fmt.Errorf("remote: provision: %w", err)
	}
	s.mu.Lock()
	s.dataKey, s.dataAEAD = key, aead
	s.mu.Unlock()
	return nil
}

// Additional data binding sealed job payloads to their direction; the
// enclave side binds the same.
var (
	jobInputAD  = []byte("job-input")
	jobOutputAD = []byte("job-output")
)

// runJob seals the input under the shared data key, submits it under the
// session key (empty for a gateway with no ring), and opens the sealed
// result. Which device ran the job is irrelevant to its safety, since every
// device that can hold the key was attested — by the owner, or enclave to
// enclave — before the key reached it. Sealed jobs are pure and idempotent,
// so a job lost to a broken connection is safely re-submitted over a fresh
// one.
func (s *session) runJob(key, kernel string, params [4]uint64, input []byte) ([]byte, FederationPlacement, error) {
	aead, err := s.aead()
	if err != nil {
		return nil, FederationPlacement{}, err
	}
	sealedIn := cryptoutil.SealWith(aead, input, jobInputAD)
	tenant, class, deadlineMillis := s.qosFields()
	req := JobRequest{
		Kernel: kernel, Params: params, SealedInput: sealedIn,
		Tenant: tenant, Class: class, DeadlineMillis: deadlineMillis, Key: key,
	}
	var resp JobResponse
	if err := s.conn.call("Cluster.RunJob", req, &resp); err != nil {
		return nil, FederationPlacement{}, err
	}
	// The sealed output sits in the client's own exact-size response frame,
	// which nothing else holds: open it in place.
	out, err := cryptoutil.OpenInPlaceWith(aead, resp.SealedOutput, jobOutputAD)
	if err != nil {
		return nil, FederationPlacement{}, fmt.Errorf("remote: sealed output rejected: %w", err)
	}
	return out, FederationPlacement{Shard: resp.Shard, Spilled: resp.Spilled}, nil
}

// runBatch seals every input and submits the whole batch in one RPC frame
// under one session key; the gateway runs it through the scheduler's
// batched path (one sealed register program per chunk on the device). Jobs
// succeed or fail individually — the returned slice is index-aligned with
// jobs — while the error covers whole-batch failures (unattested session,
// unreachable gateway, malformed response). Like runJob, a batch lost to a
// broken connection is safely re-submitted, and every output is opened in
// place in the response frame.
func (s *session) runBatch(key, kernel string, jobs []BatchInput) ([]BatchResult, FederationPlacement, error) {
	aead, err := s.aead()
	if err != nil {
		return nil, FederationPlacement{}, err
	}
	if len(jobs) == 0 {
		return nil, FederationPlacement{}, nil
	}
	tenant, class, deadlineMillis := s.qosFields()
	req := BatchRequest{
		Kernel: kernel, Jobs: make([]BatchJob, len(jobs)),
		Tenant: tenant, Class: class, DeadlineMillis: deadlineMillis, Key: key,
	}
	for i, j := range jobs {
		req.Jobs[i] = BatchJob{Params: j.Params, SealedInput: cryptoutil.SealWith(aead, j.Input, jobInputAD)}
	}
	var resp BatchResponse
	if err := s.conn.call("Cluster.RunBatch", req, &resp); err != nil {
		return nil, FederationPlacement{}, err
	}
	if len(resp.Results) != len(jobs) {
		return nil, FederationPlacement{}, fmt.Errorf("remote: gateway returned %d results for %d jobs", len(resp.Results), len(jobs))
	}
	results := make([]BatchResult, len(jobs))
	for i, r := range resp.Results {
		if r.Error != "" {
			results[i].Err = errors.New(r.Error)
			continue
		}
		out, err := cryptoutil.OpenInPlaceWith(aead, r.SealedOutput, jobOutputAD)
		if err != nil {
			results[i].Err = fmt.Errorf("remote: sealed output rejected: %w", err)
			continue
		}
		results[i].Output = out
	}
	return results, FederationPlacement{Shard: resp.Shard, Spilled: resp.Spilled}, nil
}

// stats fetches the gateway's Cluster.Stats snapshot.
func (s *session) stats() (ClusterStatsResponse, error) {
	var resp ClusterStatsResponse
	err := s.conn.call("Cluster.Stats", struct{}{}, &resp)
	return resp, err
}

// DeviceStats fetches the per-device counters of every device behind the
// gateway (every shard's, behind a front tier).
func (s *session) DeviceStats() ([]sched.DeviceStats, error) {
	resp, err := s.stats()
	return resp.Devices, err
}

// Metrics fetches the gateway process's aggregate metrics snapshot.
func (s *session) Metrics() (metrics.Snapshot, error) {
	var resp ClusterMetricsResponse
	err := s.conn.call("Cluster.Metrics", struct{}{}, &resp)
	return resp.Metrics, err
}

// Redials reports how many times the session re-dialed the gateway after a
// broken transport.
func (s *session) Redials() int { return s.conn.redialCount() }

// Calls reports how many times the session invoked method (a retried call
// counts once).
func (s *session) Calls(method string) int { return s.conn.count(method) }

// HandshakeCalls reports the owner's total attestation-path round trips —
// Boot plus Provision. The region-scoped attestation acceptance check:
// this stays at 2 while shards join, spill, and get keyed.
func (s *session) HandshakeCalls() int { return s.conn.count("Cluster.Boot", "Cluster.Provision") }

// Close releases the session. A call parked in redial backoff returns
// promptly instead of waiting the window out.
func (s *session) Close() error { return s.conn.close() }

// ClusterSession is the data owner's session with one device pool. Each
// device is verified against its own expectations (its own DNA, its own
// RoT-injected bitstream hash); one shared data key is provisioned to all.
type ClusterSession struct{ *session }

// DialCluster opens a session toward a gateway; exps holds one expectation
// set per device, in the gateway's device order.
func DialCluster(addr string, exps []client.Expectations) (*ClusterSession, error) {
	s, err := dialSession(addr, exps)
	if err != nil {
		return nil, err
	}
	return &ClusterSession{s}, nil
}

// RunJob runs one sealed job on whichever device the gateway picks and
// returns the opened output.
func (s *ClusterSession) RunJob(kernel string, params [4]uint64, input []byte) ([]byte, error) {
	out, _, err := s.runJob("", kernel, params, input)
	return out, err
}

// RunBatch runs a batch in one RPC frame; results are index-aligned with
// jobs.
func (s *ClusterSession) RunBatch(kernel string, jobs []BatchInput) ([]BatchResult, error) {
	res, _, err := s.runBatch("", kernel, jobs)
	return res, err
}

// Stats fetches the pool's per-device counters.
func (s *ClusterSession) Stats() ([]sched.DeviceStats, error) { return s.DeviceStats() }
