package federation

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"salus/internal/siphash"
)

// session is one (tenant, data-set key) pair the ring routes.
type session struct{ tenant, key string }

// sampleKeys returns n distinct sessions shaped like real ones.
func sampleKeys(n int) []session {
	keys := make([]session, n)
	for i := range keys {
		keys[i] = session{fmt.Sprintf("tenant-%d", i%97), fmt.Sprintf("dataset-%d", i)}
	}
	return keys
}

func ringWith(t *testing.T, shards ...string) *Ring {
	t.Helper()
	r := NewRing(0)
	for _, s := range shards {
		if err := r.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestRingDeterministicAndComplete(t *testing.T) {
	a := ringWith(t, "gw0", "gw1", "gw2")
	b := ringWith(t, "gw2", "gw0", "gw1") // insertion order must not matter
	for _, k := range sampleKeys(2000) {
		oa, ob := a.Route(k.tenant, k.key), b.Route(k.tenant, k.key)
		if oa == "" {
			t.Fatalf("key %q routed nowhere", k)
		}
		if oa != ob {
			t.Fatalf("placement depends on insertion order: %q -> %s vs %s", k, oa, ob)
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := ringWith(t, "gw0", "gw1", "gw2")
	counts := map[string]int{}
	keys := sampleKeys(30000)
	for _, k := range keys {
		counts[r.Route(k.tenant, k.key)]++
	}
	want := len(keys) / 3
	for shard, n := range counts {
		if n < want/2 || n > want*2 {
			t.Errorf("shard %s owns %d of %d keys — virtual nodes not balancing", shard, n, len(keys))
		}
	}
}

// TestRingJoinMovesOnlyOneSegment is the routing-convergence acceptance
// check: adding a shard may move keys only TO the new shard, removing it
// must restore the exact prior ownership, and untouched keys never move.
func TestRingJoinMovesOnlyOneSegment(t *testing.T) {
	r := ringWith(t, "gw0", "gw1", "gw2")
	keys := sampleKeys(20000)
	before := make(map[session]string, len(keys))
	for _, k := range keys {
		before[k] = r.Route(k.tenant, k.key)
	}
	epoch0 := r.Epoch()

	if err := r.Add("gw3"); err != nil {
		t.Fatal(err)
	}
	if r.Epoch() == epoch0 {
		t.Error("epoch did not advance on join")
	}
	moved := 0
	for _, k := range keys {
		after := r.Route(k.tenant, k.key)
		if after == before[k] {
			continue
		}
		if after != "gw3" {
			t.Fatalf("key %q moved %s -> %s on gw3 join: only the new shard's segment may move", k, before[k], after)
		}
		moved++
	}
	// The new shard should take roughly its fair share (1/4), and must take
	// something — a join that moves nothing routed no load to the new shard.
	if moved == 0 || moved > len(keys)/2 {
		t.Errorf("gw3 join moved %d of %d keys, want ~%d", moved, len(keys), len(keys)/4)
	}

	if err := r.Remove("gw3"); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if got := r.Route(k.tenant, k.key); got != before[k] {
			t.Fatalf("key %q maps to %s after join+leave, was %s: leave did not restore the segment", k, got, before[k])
		}
	}
}

func TestRingMembership(t *testing.T) {
	r := NewRing(8)
	if got := r.Route("", "anything"); got != "" {
		t.Errorf("empty ring routed to %q", got)
	}
	if err := r.Add(""); err == nil {
		t.Error("empty shard id accepted")
	}
	if err := r.Add("gw0"); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("gw0"); err == nil {
		t.Error("duplicate add accepted")
	}
	if err := r.Remove("gw9"); err == nil {
		t.Error("removing an absent shard accepted")
	}
	if got := r.Shards(); len(got) != 1 || got[0] != "gw0" {
		t.Errorf("Shards() = %v", got)
	}
	if r.Size() != 1 {
		t.Errorf("Size() = %d", r.Size())
	}
}

func TestRouteKeyUnambiguous(t *testing.T) {
	if string(appendRouteKey(nil, "ab", "c")) == string(appendRouteKey(nil, "a", "bc")) {
		t.Error("tenant/key concatenation is ambiguous")
	}
}

// TestRoutePlacesLikeSprintfKey holds Route to the placements of the ring
// key it used to build with fmt.Sprintf, kept here as the reference: the
// same bytes hashed, so no session moves shard.
func TestRoutePlacesLikeSprintfKey(t *testing.T) {
	r := ringWith(t, "gw0", "gw1", "gw2")
	sessions := append(sampleKeys(10000), session{"", ""}, session{"", "k"}, session{"t", ""},
		session{strings.Repeat("t", 100), strings.Repeat("k", 100)}) // longer than the stack buffer
	for _, s := range sessions {
		ref := fmt.Sprintf("%d:%s|%d:%s", len(s.tenant), s.tenant, len(s.key), s.key)
		if want := routeRef(r, ref); r.Route(s.tenant, s.key) != want {
			t.Fatalf("session %+v routes to %s, the Sprintf key to %s", s, r.Route(s.tenant, s.key), want)
		}
	}
}

// routeRef routes an already-built ring key the way Route did before it
// built the key itself.
func routeRef(r *Ring, key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h := siphash.Sum64(ringHashKey, []byte(key))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

func TestRouteDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := ringWith(t, "gw0", "gw1", "gw2")
	if n := testing.AllocsPerRun(1000, func() { r.Route("tenant-42", "dataset-4242") }); n != 0 {
		t.Errorf("Route allocates %.1f times a call, want 0", n)
	}
}
