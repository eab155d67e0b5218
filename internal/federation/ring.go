// Package federation is the horizontal control-plane tier above the
// single-gateway stack: N gateways (each a fleet.Manager owning a disjoint
// board shard) fronted by one routing layer.
//
// Three mechanisms make the tier scale without multiplying the data owner's
// cost by the gateway count:
//
//   - a consistent-hash ring (virtual nodes, tenant+data-key keyed) pins
//     every session to a home shard, and a shard join or leave re-routes
//     only the ring segment that actually moved;
//   - cross-gateway spill-over moves jobs off a saturated shard using the
//     same backlog-pressure signal the fleet autoscaler acts on, and the
//     session follows via the sibling data-key hand-off — enclave to
//     enclave over local attestation, never through the owner;
//   - region-scoped attestation: the owner attests one federation root
//     shard, and every other shard's enclaves receive the data key from an
//     already-attested sibling, so owner-side cost is O(1) per region
//     instead of O(gateways).
//
// WAN and intra-region latency are charged through internal/simnet links to
// a shared virtual clock, so the federation benchmark reports how much
// modelled network time the routing tier adds.
package federation

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"salus/internal/siphash"
)

// DefaultVirtualNodes is how many ring points each shard contributes.
// More points smooth the key distribution across shards at the cost of a
// larger routing table; 64 keeps the per-shard imbalance under a few
// percent for the fleet sizes the federation targets.
const DefaultVirtualNodes = 64

// ringHashKey keys the SipHash used for ring placement. Routing is not an
// authentication boundary — a fixed, public key is deliberate: every
// gateway (and any client that wants to predict its home shard) must place
// keys identically.
var ringHashKey = []byte("salus/federation")

// appendRouteKey appends the ring key of a session's tenant and data-set
// key, "len:tenant|len:key" with decimal lengths: both parts are
// length-prefixed so ("ab","c") and ("a","bc") cannot collide.
func appendRouteKey(b []byte, tenant, key string) []byte {
	b = append(strconv.AppendInt(b, int64(len(tenant)), 10), ':')
	b = append(append(b, tenant...), '|')
	b = append(strconv.AppendInt(b, int64(len(key)), 10), ':')
	return append(b, key...)
}

// Ring is a consistent-hash ring over shard IDs. Every shard contributes
// vnodes points; a key routes to the first point clockwise from its hash.
// Safe for concurrent use: routing takes a read lock over a sorted slice.
type Ring struct {
	vnodes int

	mu     sync.RWMutex
	points []ringPoint // sorted by hash
	shards map[string]struct{}
	epoch  uint64 // bumped on every membership change
}

type ringPoint struct {
	hash  uint64
	shard string
}

// NewRing builds an empty ring; vnodes <= 0 selects DefaultVirtualNodes.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, shards: make(map[string]struct{})}
}

// hashPoint places virtual node i of a shard on the ring.
func (r *Ring) hashPoint(shard string, i int) uint64 {
	buf := make([]byte, 4+len(shard))
	binary.BigEndian.PutUint32(buf, uint32(i))
	copy(buf[4:], shard)
	return siphash.Sum64(ringHashKey, buf)
}

// Add inserts a shard's virtual nodes. Adding a present shard is an error —
// membership changes must be deliberate, since each one re-routes a ring
// segment.
func (r *Ring) Add(shard string) error {
	if shard == "" {
		return fmt.Errorf("federation: empty shard id")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.shards[shard]; dup {
		return fmt.Errorf("federation: shard %s already on the ring", shard)
	}
	r.shards[shard] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: r.hashPoint(shard, i), shard: shard})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	r.epoch++
	return nil
}

// Remove deletes a shard's virtual nodes. Keys in the removed segments move
// to their clockwise successors; every other key keeps its owner.
func (r *Ring) Remove(shard string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.shards[shard]; !ok {
		return fmt.Errorf("federation: shard %s not on the ring", shard)
	}
	delete(r.shards, shard)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != shard {
			kept = append(kept, p)
		}
	}
	r.points = kept
	r.epoch++
	return nil
}

// Route returns the owning shard of a session's tenant and data-set key, or
// "" on an empty ring. Placement is deterministic: every party holding the
// same membership set computes the same owner. The ring key is built in a
// stack buffer, so routing a session whose key fits it does not allocate.
func (r *Ring) Route(tenant, key string) string {
	var buf [128]byte
	h := siphash.Sum64(ringHashKey, appendRouteKey(buf[:0], tenant, key))
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	// First point clockwise from h; wrap to the start past the last point.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// Shards lists current members in sorted order.
func (r *Ring) Shards() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.shards))
	for s := range r.shards {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Size returns the member count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.shards)
}

// Epoch identifies the routing table version; it bumps on every Add or
// Remove, so a client can detect that a cached Route answer predates a
// membership change.
func (r *Ring) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}
