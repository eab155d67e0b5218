package remote

import (
	"salus/internal/client"
	"salus/internal/core"
	"salus/internal/federation"
	"salus/internal/fleet"
	"salus/internal/rpc"
	"salus/internal/sched"
)

// The constructors and session views below predate Serve and Dial. The
// nested bench module still calls them; they go once it moves onto Serve
// and Dial. Bench-only; deleted with ROADMAP item 1(c).

// ServeCluster serves a fixed pool: systems behind sch, pinned at their
// size. Bench-only; deleted with ROADMAP item 1(c).
func ServeCluster(systems []*core.System, sch *sched.Scheduler, addr string, opts ...GatewayOption) (*rpc.Server, string, error) {
	return Serve(federation.Single(fleet.Fixed(sch, systems)), systems, addr, opts...)
}

// ServeFleet spawns k boards from m and serves them as an elastic fleet,
// returning the systems the owner attests. Bench-only; deleted with
// ROADMAP item 1(c).
func ServeFleet(m *fleet.Manager, k int, addr string, opts ...GatewayOption) (*rpc.Server, []*core.System, string, error) {
	systems, err := m.SpawnN(k)
	if err != nil {
		return nil, nil, "", err
	}
	srv, bound, err := Serve(federation.Single(m), systems, addr, opts...)
	return srv, systems, bound, err
}

// ServeFederation serves a region whose root shard's systems are root.
// Bench-only; deleted with ROADMAP item 1(c).
func ServeFederation(fed *federation.Federation, root []*core.System, addr string, opts ...GatewayOption) (*rpc.Server, string, error) {
	return Serve(fed, root, addr, opts...)
}

// DialCluster opens a ClusterSession. Bench-only; deleted with ROADMAP
// item 1(c).
func DialCluster(addr string, exps []client.Expectations) (*ClusterSession, error) {
	s, err := Dial(addr, exps)
	return &ClusterSession{s}, err
}

// DialFederation is Dial. Bench-only; deleted with ROADMAP item 1(c).
func DialFederation(addr string, exps []client.Expectations) (*FederationSession, error) {
	return Dial(addr, exps)
}

// FederationSession is Session. Bench-only; deleted with ROADMAP item 1(c).
type FederationSession = Session

// ClusterSession is a Session whose jobs carry no session key and whose
// Stats are the per-device counters. Bench-only; deleted with ROADMAP
// item 1(c).
type ClusterSession struct{ *Session }

// RunJob is Session.RunJob under the empty key, placement dropped.
func (s *ClusterSession) RunJob(kernel string, params [4]uint64, input []byte) ([]byte, error) {
	out, _, err := s.Session.RunJob("", kernel, params, input)
	return out, err
}

// RunBatch is Session.RunBatch under the empty key, placement dropped.
func (s *ClusterSession) RunBatch(kernel string, jobs []BatchInput) ([]BatchResult, error) {
	res, _, err := s.Session.RunBatch("", kernel, jobs)
	return res, err
}

// Stats is Session.DeviceStats.
func (s *ClusterSession) Stats() ([]sched.DeviceStats, error) { return s.DeviceStats() }
