package sched

import (
	"fmt"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/core"
	"salus/internal/metrics"
)

// TestFloodingTenantBatchCannotStarveStandard is the cross-band half of
// the fair-share contract on one die: a tenant flooding ClassBatch work
// cannot starve another tenant's ClassStandard job, whose wait is bounded
// by the one job already executing.
func TestFloodingTenantBatchCannotStarveStandard(t *testing.T) {
	systems, key, _ := newFaultyPool(t, 1, 30*time.Millisecond)
	s := newScheduler(t, systems)

	w := accel.GenConv(4, 4, 1, 21)
	order := make(chan string, 12)
	watchOrder(order, "blocker", submitW(s, key, w))
	for i := 0; i < 10; i++ {
		watchOrder(order, fmt.Sprintf("flood-%d", i),
			submitWOpts(s, key, w, SubmitOptions{Class: ClassBatch, Tenant: "flooder"}))
	}
	watchOrder(order, "victim",
		submitWOpts(s, key, w, SubmitOptions{Class: ClassStandard, Tenant: "victim"}))

	seq := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		seq = append(seq, <-order)
	}
	if v := indexOf(seq, "victim"); v > 2 {
		t.Fatalf("standard job finished %dth behind the batch flood: %v", v, seq)
	}
}

// TestFairShareBoundedWaitWithinBand is the same-band half: with both
// tenants in ClassStandard on one shared partition, the per-band weighted
// round-robin bounds the victim's wait by one WRR round (here one flood
// job), not by the flooder's backlog — pure EDF would run the victim
// last.
func TestFairShareBoundedWaitWithinBand(t *testing.T) {
	systems, key, _ := newFaultyPool(t, 1, 30*time.Millisecond)
	s := newScheduler(t, systems)

	w := accel.GenConv(4, 4, 1, 22)
	order := make(chan string, 14)
	watchOrder(order, "blocker", submitW(s, key, w))
	for i := 0; i < 12; i++ {
		watchOrder(order, fmt.Sprintf("flood-%d", i),
			submitWOpts(s, key, w, SubmitOptions{Class: ClassStandard, Tenant: "flooder"}))
	}
	watchOrder(order, "victim",
		submitWOpts(s, key, w, SubmitOptions{Class: ClassStandard, Tenant: "victim"}))

	seq := make([]string, 0, 14)
	for i := 0; i < 14; i++ {
		seq = append(seq, <-order)
	}
	// seq[0] is the blocker; with default weight 1 each, the WRR serves at
	// most one flood job before the victim's first (and only) job.
	if v := indexOf(seq, "victim"); v > 2 {
		t.Fatalf("victim waited %d flood jobs despite fair share: %v", v-1, seq)
	}
}

// TestTenantWeightsShapeServiceRatio: with weights gold=3, bronze=1, every
// completion prefix serves gold at least as often as bronze, and the
// first WRR round is 3 gold to 1 bronze.
func TestTenantWeightsShapeServiceRatio(t *testing.T) {
	systems, key, _ := newFaultyPool(t, 1, 20*time.Millisecond)
	s := New(Config{TenantWeights: map[string]int{"gold": 3, "bronze": 1}})
	if err := s.Register(systems[0]); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	w := accel.GenConv(4, 4, 1, 23)
	order := make(chan string, 13)
	watchOrder(order, "blocker", submitW(s, key, w))
	for i := 0; i < 6; i++ {
		watchOrder(order, "gold", submitWOpts(s, key, w, SubmitOptions{Class: ClassStandard, Tenant: "gold"}))
	}
	for i := 0; i < 6; i++ {
		watchOrder(order, "bronze", submitWOpts(s, key, w, SubmitOptions{Class: ClassStandard, Tenant: "bronze"}))
	}

	seq := make([]string, 0, 13)
	for i := 0; i < 13; i++ {
		seq = append(seq, <-order)
	}
	gold, bronze := 0, 0
	for _, name := range seq {
		switch name {
		case "gold":
			gold++
		case "bronze":
			bronze++
		}
		if bronze > gold+1 {
			t.Fatalf("bronze served %d before gold reached %d — weights ignored: %v", bronze, gold, seq)
		}
	}
	firstRound := seq[1:5] // after the blocker: one full WRR round of 4
	g := 0
	for _, name := range firstRound {
		if name == "gold" {
			g++
		}
	}
	if g != 3 {
		t.Fatalf("first WRR round served %d gold of 4, want 3: %v", g, seq)
	}
}

// TestDedicatedPartitionServesOnlyItsTenant: a partition registered for
// tenant A never runs tenant B's work; B's submission dead-ends with a
// routing error naming the tenant rather than silently sharing A's RP.
func TestDedicatedPartitionServesOnlyItsTenant(t *testing.T) {
	systems, key := newPool(t, 1, accel.Conv{})
	s := New(Config{})
	if err := s.RegisterTenant(systems[0], "tenant-a"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	w := accel.GenConv(4, 4, 1, 24)
	if _, err := submitWOpts(s, key, w, SubmitOptions{Class: ClassStandard, Tenant: "tenant-a"}).Wait(); err != nil {
		t.Fatalf("owning tenant rejected from its own partition: %v", err)
	}
	if _, err := submitWOpts(s, key, w, SubmitOptions{Class: ClassStandard, Tenant: "tenant-b"}).Wait(); err == nil {
		t.Fatal("foreign tenant's job ran on a dedicated partition")
	}
	if _, err := submitW(s, key, w).Wait(); err == nil {
		t.Fatal("unlabelled job ran on a dedicated partition")
	}
}

// TestPerRPQueueDepthGaugesReturnToZeroAfterChurn extends the PR 7
// accounting invariant to spatial sharing: after multi-tenant churn
// across two co-resident RPs — successes, per-tenant floods, deadline
// sheds, an RP-granular drain+remove, and shutdown — every per-RP
// queue-depth gauge lands back exactly where it started.
func TestPerRPQueueDepthGaugesReturnToZeroAfterChurn(t *testing.T) {
	timing := core.FastTiming()
	systems, err := core.NewPartitionSystems(core.SystemConfig{
		Seed:   811,
		DNA:    "RPGAUGE-00",
		Timing: timing,
	}, []accel.Kernel{accel.Conv{}, accel.Conv{}})
	if err != nil {
		t.Fatal(err)
	}
	key, err := BootSharedParallel(systems)
	if err != nil {
		t.Fatal(err)
	}

	gaugeNames := []string{
		"salus_sched_rp_queue_depth_RPGAUGE-00_rp0",
		"salus_sched_rp_queue_depth_RPGAUGE-00_rp1",
	}
	before := metrics.Default().Snapshot()

	s := New(Config{TenantWeights: map[string]int{"a": 2, "b": 1}})
	for _, sys := range systems {
		if err := s.Register(sys); err != nil {
			t.Fatal(err)
		}
	}

	w := accel.GenConv(4, 4, 1, 25)
	var futs []*Future
	for i := 0; i < 8; i++ {
		futs = append(futs, submitWOpts(s, key, w, SubmitOptions{Class: ClassStandard, Tenant: "a"}))
		futs = append(futs, submitWOpts(s, key, w, SubmitOptions{Class: ClassBatch, Tenant: "b"}))
	}
	futs = append(futs, submitWOpts(s, key, w, SubmitOptions{Tenant: "a", Deadline: time.Now().Add(-time.Second)}))
	for _, f := range futs {
		_, _ = f.Wait() // the expired job resolves with a shed error
	}

	// RP-granular churn: drain and remove rp1, keep rp0 serving.
	if err := s.RemoveRP("RPGAUGE-00", 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := submitWOpts(s, key, w, SubmitOptions{Tenant: "b"}).Wait(); err != nil {
		t.Fatalf("surviving RP after sibling removal: %v", err)
	}
	s.Close()

	after := metrics.Default().Snapshot()
	for _, name := range gaugeNames {
		if d := after.Gauges[name] - before.Gauges[name]; d != 0 {
			t.Fatalf("per-RP gauge %s leaked %+d after churn, want exactly 0", name, d)
		}
	}
	if d := after.Gauges["salus_sched_queue_depth"] - before.Gauges["salus_sched_queue_depth"]; d != 0 {
		t.Fatalf("global queue depth gauge leaked %+d after churn, want exactly 0", d)
	}
}
