package remote

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/client"
	"salus/internal/core"
	"salus/internal/cryptoutil"
	"salus/internal/federation"
	"salus/internal/rpc"
	"salus/internal/sched"
	"salus/internal/userapp"
)

// userappGrant converts the wire grant back to the enclave type.
func userappGrant(g HandoffGrant) userapp.KeyGrant {
	return userapp.KeyGrant{SenderPub: g.SenderPub, Sealed: g.Sealed}
}

// dialFederationDeployment builds a local federation with the remote
// handshake pending, serves it, and returns an attested owner session.
func dialFederationDeployment(t *testing.T, spec federation.LocalSpec) (*federation.LocalDeployment, *FederationSession, *wireTap) {
	t.Helper()
	if spec.Kernel == nil {
		spec.Kernel = accel.Conv{}
	}
	spec.RemoteHandshake = true
	d, err := federation.BuildLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	srv, addr, err := ServeFederation(d.Fed, d.RootSystems, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	exps := make([]client.Expectations, len(d.RootSystems))
	for i, sys := range d.RootSystems {
		exps[i] = sys.Expectations()
	}
	tap := newWireTap(t, addr)
	sess, err := DialFederation(tap.addr, exps)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}
	return d, sess, tap
}

// TestFederationGatewayEndToEnd drives the whole remote story: the owner
// attests ONLY the root shard through the front tier, yet sessions land on
// all three shards (the siblings keyed by enclave hand-off), results
// verify under the owner's key, and routing answers match placements.
func TestFederationGatewayEndToEnd(t *testing.T) {
	d, sess, _ := dialFederationDeployment(t, federation.LocalSpec{
		Shards: 3, DevicesPerShard: 2,
		Federation: federation.Config{SpillHighWater: 1e9},
	})

	seen := map[string]bool{}
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("dataset-%d", i)
		w := accel.GenConv(4, 4, 1, int64(i))
		out, placement, err := sess.RunJob(key, "Conv", w.Params, w.Input)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		ref, err := w.Kernel.Compute(w.Params, w.Input)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(ref) {
			t.Fatalf("job %d diverges from reference", i)
		}
		route, err := sess.Route(key)
		if err != nil {
			t.Fatal(err)
		}
		if route.Shard != placement.Shard {
			t.Fatalf("job %d ran on %s but routes to %s", i, placement.Shard, route.Shard)
		}
		seen[placement.Shard] = true
	}
	if len(seen) != 3 {
		t.Fatalf("60 sessions landed on %d of 3 shards: %v", len(seen), seen)
	}

	st, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Handoffs != 4 { // 2 sibling shards x 2 boards
		t.Errorf("handoffs = %d, want 4", st.Handoffs)
	}
	for _, sh := range st.Shards {
		if !sh.Keyed || sh.Devices != 2 {
			t.Errorf("shard %s: keyed=%v devices=%d", sh.ID, sh.Keyed, sh.Devices)
		}
	}
	// Region-scoped attestation: the owner's entire attestation cost was one
	// Boot and one Provision against the root shard, for a 3-shard region.
	if got := sess.HandshakeCalls(); got != 2 {
		t.Errorf("owner handshake calls = %d, want 2", got)
	}
	// The whole region is visible through Cluster.Stats.
	devs, err := sess.DeviceStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(devs) != 6 {
		t.Errorf("region device stats = %d devices, want 6", len(devs))
	}
	_ = d
}

// TestFederationSpillOverZeroOwnerRPCs is the migration acceptance check:
// a hot session saturates its 1-device home shard, jobs spill to sibling
// shards, the spill targets are keyed by enclave hand-off — and the owner
// session observes ZERO additional round trips: no re-attestation, no
// re-provisioning, no hand-off participation. Sessions migrate across
// shards without an owner round trip.
func TestFederationSpillOverZeroOwnerRPCs(t *testing.T) {
	_, sess, tap := dialFederationDeployment(t, federation.LocalSpec{
		Shards: 3, DevicesPerShard: 1,
		Timing:     core.Timing{RealJobLatency: 10 * time.Millisecond},
		Scheduler:  sched.Config{QueueDepth: 256},
		Federation: federation.Config{SpillHighWater: 2},
	})
	base := sess.HandshakeCalls()
	if base != 2 {
		t.Fatalf("handshake calls after attest = %d, want 2", base)
	}

	const jobs = 40
	w := accel.GenConv(4, 4, 1, 7)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		spilled int
		homes   = map[string]int{}
		errs    []error
	)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, placement, err := sess.RunJob("hot-dataset", "Conv", w.Params, w.Input)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			homes[placement.Shard]++
			if placement.Spilled {
				spilled++
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		t.Fatal(err)
	}
	if spilled == 0 {
		t.Fatalf("hot session over a 1-device shard never spilled; placement: %v", homes)
	}
	if len(homes) < 2 {
		t.Fatalf("all jobs stayed on one shard: %v", homes)
	}

	st, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Handoffs == 0 {
		t.Error("spill target was never keyed by hand-off")
	}
	if st.Spilled == 0 {
		t.Error("federation counted no spills")
	}
	// The zero-owner-RPC property: migrating the session onto other shards
	// cost the owner nothing. Handshake count is unchanged and the owner
	// never served (or even saw) a hand-off message.
	if got := sess.HandshakeCalls(); got != base {
		t.Errorf("owner handshake calls grew %d -> %d during spill-over", base, got)
	}
	if got := tap.calls("Cluster.Handoff"); slices.ContainsFunc(got, func(n int) bool { return n != 0 }) {
		t.Errorf("owner participated in hand-offs, per connection: %v", got)
	}
}

// TestFederationWireHandoff keys a brand-new recipient enclave entirely
// over the Cluster.Handoff RPC — the path a peer shard gateway uses —
// and proves the adopted board serves sealed jobs under the owner's key.
func TestFederationWireHandoff(t *testing.T) {
	d, sess, tap := dialFederationDeployment(t, federation.LocalSpec{
		Shards: 2, DevicesPerShard: 1,
		Federation: federation.Config{SpillHighWater: 1e9},
	})

	// A new board on shard gw1's fabric finishes its instance-side boot.
	mgr := d.Managers[1]
	spawned, err := mgr.SpawnN(1)
	if err != nil {
		t.Fatal(err)
	}
	sys := spawned[0]
	ver := client.New(sys.Expectations())
	nonce := ver.NewNonce()
	quote, err := sys.BootAndQuote(nonce)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.VerifyQuote(ver, nonce, quote); err != nil {
		t.Fatal(err)
	}

	// The shard gateway relays the enclave's key request to the federation
	// over plain RPC and feeds the grant back. No owner anywhere.
	req, err := sys.BeginAdoptDataKey(sys.User.Measurement())
	if err != nil {
		t.Fatal(err)
	}
	c, err := rpc.Dial(tap.target)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var grant HandoffGrant
	wireReq := HandoffRequest{Report: req.Report, RecipientPub: req.RecipientPub}
	if err := c.Call("Cluster.Handoff", wireReq, &grant); err != nil {
		t.Fatal(err)
	}
	if err := sys.FinishAdoptDataKey(userappGrant(grant)); err != nil {
		t.Fatal(err)
	}
	if !sys.Booted() {
		t.Fatal("recipient not booted after wire hand-off")
	}
	if err := mgr.Adopt(sys); err != nil {
		t.Fatal(err)
	}

	// The adopted board serves jobs sealed under the key the owner
	// provisioned to the root shard only.
	w := accel.GenConv(4, 4, 1, 99)
	sess.mu.Lock()
	dk := sess.dataKey
	sess.mu.Unlock()
	sealed, err := cryptoutil.Seal(dk, w.Input, []byte("job-input"))
	if err != nil {
		t.Fatal(err)
	}
	sealedOut, err := mgr.Scheduler().SubmitSealedOpts("Conv", w.Params, sealed, sched.SubmitOptions{Class: sched.ClassStandard}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	out, err := cryptoutil.Open(dk, sealedOut, []byte("job-output"))
	if err != nil {
		t.Fatalf("output does not open under the owner's key: %v", err)
	}
	ref, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(ref) {
		t.Fatal("wire-handed-off board computed a wrong result")
	}

	// A second replayed grant must be refused: the recipient is booted.
	if err := sys.FinishAdoptDataKey(userappGrant(grant)); err == nil {
		t.Fatal("replayed grant accepted by a booted recipient")
	}
}

// TestFederationSessionSurvivesFrontTierRestart: the front tier restarts on
// the same address (rolling deploy); the owner session's stream is broken,
// but the next RunJob re-dials and succeeds under the same data key with no
// second handshake — federated sessions ride the same redialing connection
// as cluster sessions.
func TestFederationSessionSurvivesFrontTierRestart(t *testing.T) {
	d, err := federation.BuildLocal(federation.LocalSpec{
		Shards: 2, DevicesPerShard: 1, Kernel: accel.Conv{}, RemoteHandshake: true,
		Federation: federation.Config{SpillHighWater: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv, addr, err := ServeFederation(d.Fed, d.RootSystems, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sess, err := DialFederation(addr, []client.Expectations{d.RootSystems[0].Expectations()})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}
	w := accel.GenConv(4, 4, 1, 17)
	ref, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	if out, _, err := sess.RunJob("dataset", "Conv", w.Params, w.Input); err != nil || string(out) != string(ref) {
		t.Fatalf("job before restart: %v", err)
	}

	srv.Close()
	srv2, _, err := ServeFederation(d.Fed, d.RootSystems, addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()

	out, _, err := sess.RunJob("dataset", "Conv", w.Params, w.Input)
	if err != nil {
		t.Fatalf("job after restart: %v", err)
	}
	if string(out) != string(ref) {
		t.Error("post-restart job output diverges from reference")
	}
	if sess.Redials() < 1 {
		t.Errorf("Redials() = %d, want >= 1 after a front-tier restart", sess.Redials())
	}
	if got := sess.HandshakeCalls(); got != 2 {
		t.Errorf("owner handshake calls = %d after restart, want 2", got)
	}
}
