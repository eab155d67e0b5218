package remote

import (
	"fmt"

	"salus/internal/client"
	"salus/internal/core"
	"salus/internal/federation"
	"salus/internal/rpc"
	"salus/internal/sgx"
	"salus/internal/userapp"
)

// --- Ring-fronting gateway ---------------------------------------------------
//
// The front tier over N shard gateways: one RPC endpoint routes sealed
// sessions to their home shard on the consistent-hash ring, spills them to
// the least-loaded sibling when the home shard saturates, and brokers the
// enclave-to-enclave data-key hand-off that lets the whole region serve a
// key the owner provisioned exactly once — to the root shard. It speaks the
// same Cluster.* dialect as every gateway, plus Cluster.Route and
// Cluster.Handoff; the hand-off messages are local-attestation reports plus
// grants sealed to attested enclave keys, so relaying them needs no trust.

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
// relayed to this federation (core.System.BeginAdoptDataKey wire form).
// The report pins the recipient's measurement and binds its ephemeral
// public key into the report data, so the relaying hosts cannot swap
// either.
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

// ServeFederation exposes a federation's front tier on addr.
//
// The owner handshake runs against the ROOT shard's systems only — the
// region-scoped attestation property: the owner attests and provisions
// O(root shard) devices, and every other shard in the region is keyed
// enclave-to-enclave via Cluster.Handoff or the in-process hand-off, with
// zero further owner round trips. Jobs go through the ring; Cluster.Stats
// covers every device of every shard and carries the ring snapshot.
func ServeFederation(fed *federation.Federation, root []*core.System, addr string, opts ...GatewayOption) (*rpc.Server, string, error) {
	if fed == nil {
		return nil, "", fmt.Errorf("remote: nil federation")
	}
	if len(root) == 0 {
		return nil, "", fmt.Errorf("remote: empty root shard")
	}
	rootMgr := fed.Manager(fed.Root())
	if rootMgr == nil {
		return nil, "", fmt.Errorf("remote: federation has no root shard")
	}
	// Each provisioned system is adopted into the root manager; once the
	// whole shard is through, the root is marked keyed and becomes the
	// region's hand-off donor anchor.
	adopted := 0
	srv := newGateway(root, func(sys *core.System) error {
		if err := rootMgr.Adopt(sys); err != nil {
			return err
		}
		if adopted++; adopted == len(root) {
			fed.MarkRootKeyed()
		}
		return nil
	}, backend{fed: fed}, opts)

	srv.Handle("Cluster.Route", rpc.Typed(func(in RouteRequest) (RouteResponse, error) {
		id, shardAddr, epoch, err := fed.Route(in.Tenant, in.Key)
		if err != nil {
			return RouteResponse{}, err
		}
		return RouteResponse{Shard: id, Addr: shardAddr, Epoch: epoch}, nil
	}))
	srv.Handle("Cluster.Handoff", rpc.Typed(func(in HandoffRequest) (HandoffGrant, error) {
		grant, err := fed.Grant(userapp.KeyRequest{Report: in.Report, RecipientPub: in.RecipientPub})
		if err != nil {
			return HandoffGrant{}, err
		}
		return HandoffGrant{SenderPub: grant.SenderPub, Sealed: grant.Sealed}, nil
	}))
	return listen(srv, addr)
}

// FederationPlacement reports where one request landed; it is zero from a
// gateway that fronts no ring.
type FederationPlacement struct {
	Shard   string
	Spilled bool
}

// FederationSession is a data owner's session addressed by session key.
// One session carries one tenant identity and one data key: the owner
// attests the root shard's devices once, provisions the key once, and then
// addresses work purely by key — the ring places it, spill-over moves it,
// and the hand-off keys new shards, all without the session's involvement.
// Calls and HandshakeCalls let tests and benchmarks assert that from the
// owner's chair: exactly one Boot and one Provision, ever, no matter how
// many shards end up serving the key.
type FederationSession struct{ *session }

// DialFederation opens a session toward a front tier. exps holds one
// expectation set per ROOT-shard device, in the root's device order — the
// only devices the owner ever verifies.
func DialFederation(addr string, exps []client.Expectations) (*FederationSession, error) {
	s, err := dialSession(addr, exps)
	if err != nil {
		return nil, err
	}
	return &FederationSession{s}, nil
}

// Route asks the front tier where a session key lives right now.
func (s *FederationSession) Route(key string) (RouteResponse, error) {
	tenant, _, _ := s.qosFields()
	var resp RouteResponse
	err := s.conn.call("Cluster.Route", RouteRequest{Tenant: tenant, Key: key}, &resp)
	return resp, err
}

// RunJob submits one sealed job under the session key; the front tier
// places it. Returns the opened output and the placement the router
// reported.
func (s *FederationSession) RunJob(key, kernel string, params [4]uint64, input []byte) ([]byte, FederationPlacement, error) {
	return s.runJob(key, kernel, params, input)
}

// RunBatch submits the batch under one session key — one routing decision,
// one frame. Results are index-aligned with jobs.
func (s *FederationSession) RunBatch(key, kernel string, jobs []BatchInput) ([]BatchResult, FederationPlacement, error) {
	return s.runBatch(key, kernel, jobs)
}

// Stats fetches the federation-wide routing and shard snapshot.
func (s *FederationSession) Stats() (federation.Stats, error) {
	resp, err := s.stats()
	if err != nil {
		return federation.Stats{}, err
	}
	if resp.Ring == nil {
		return federation.Stats{}, fmt.Errorf("remote: gateway fronts no ring")
	}
	return *resp.Ring, nil
}
