package federation

import (
	"fmt"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/core"
	"salus/internal/cryptoutil"
	"salus/internal/sched"
)

// buildTestFederation assembles an owner-booted local federation and
// registers teardown.
func buildTestFederation(t *testing.T, spec LocalSpec) *LocalDeployment {
	t.Helper()
	if spec.Kernel == nil {
		spec.Kernel = accel.Conv{}
	}
	d, err := BuildLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// submitOne seals a conv workload, routes it through the federation, and
// checks the result round-trips under the shared key.
func submitOne(t *testing.T, d *LocalDeployment, tenant, key string, seed int64) SubmitResult {
	t.Helper()
	w := accel.GenConv(4, 4, 1, seed)
	sealed, err := cryptoutil.Seal(d.Key, w.Input, []byte("job-input"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Fed.Submit(tenant, key, "Conv", w.Params, sealed, sched.SubmitOptions{Class: sched.ClassStandard})
	if err != nil {
		t.Fatal(err)
	}
	sealedOut, err := res.Future.Wait()
	if err != nil {
		t.Fatalf("job on shard %s (spilled=%v): %v", res.Shard, res.Spilled, err)
	}
	out, err := cryptoutil.Open(d.Key, sealedOut, []byte("job-output"))
	if err != nil {
		t.Fatalf("result does not open under the shared key: %v", err)
	}
	ref, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(ref) {
		t.Fatal("federated result diverges from reference")
	}
	return res
}

// TestFederationLazyHandoffAndRouting checks the region-scoped attestation
// story end to end: only the root shard is owner-booted; sibling shards
// start unkeyed with zero registered devices, and join lazily via the
// sibling data-key hand-off the first time the ring routes them work.
func TestFederationLazyHandoffAndRouting(t *testing.T) {
	d := buildTestFederation(t, LocalSpec{
		Shards: 3, DevicesPerShard: 2,
		Federation: Config{SpillHighWater: 1e9}, // isolate routing from spill
	})

	st := d.Fed.Stats()
	if len(st.Shards) != 3 {
		t.Fatalf("shards = %d", len(st.Shards))
	}
	for _, sh := range st.Shards {
		if sh.ID == "gw0" {
			if !sh.Keyed || !sh.Root || sh.Devices != 2 {
				t.Fatalf("root shard state: %+v", sh)
			}
		} else if sh.Keyed || sh.Devices != 0 {
			t.Fatalf("sibling shard %s keyed/registered before any traffic: %+v", sh.ID, sh)
		}
	}

	// Enough distinct sessions to hit every shard's segment.
	seen := map[string]bool{}
	for i := 0; i < 60; i++ {
		res := submitOne(t, d, "tenant-a", fmt.Sprintf("dataset-%d", i), int64(i))
		if res.Spilled {
			t.Fatalf("job %d spilled with an effectively infinite high-water", i)
		}
		id, _, _, err := d.Fed.Route("tenant-a", fmt.Sprintf("dataset-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if id != res.Shard {
			t.Fatalf("job %d ran on %s but routes to %s", i, res.Shard, id)
		}
		seen[res.Shard] = true
	}
	if len(seen) != 3 {
		t.Fatalf("60 sessions landed on %d of 3 shards: %v", len(seen), seen)
	}

	st = d.Fed.Stats()
	if st.Handoffs != 4 { // 2 sibling shards x 2 boards, one hand-off each
		t.Errorf("handoffs = %d, want 4", st.Handoffs)
	}
	if st.Routed != 60 || st.Spilled != 0 {
		t.Errorf("routed/spilled = %d/%d, want 60/0", st.Routed, st.Spilled)
	}
	for _, sh := range st.Shards {
		if !sh.Keyed || sh.Devices != 2 {
			t.Errorf("shard %s after traffic: keyed=%v devices=%d", sh.ID, sh.Keyed, sh.Devices)
		}
	}
	if d.Fed.NetClock().Elapsed() <= 0 {
		t.Error("no modelled network time charged")
	}
}

// TestFederationSpillOver drives one session hard enough to saturate its
// home shard and checks jobs overflow to less-loaded shards — and that the
// spill target is keyed by hand-off, never by another owner boot.
func TestFederationSpillOver(t *testing.T) {
	d := buildTestFederation(t, LocalSpec{
		Shards: 3, DevicesPerShard: 1,
		Timing:     core.Timing{RealJobLatency: 10 * time.Millisecond},
		Scheduler:  sched.Config{QueueDepth: 256},
		Federation: Config{SpillHighWater: 2},
	})

	const jobs = 40
	w := accel.GenConv(4, 4, 1, 7)
	sealed, err := cryptoutil.Seal(d.Key, w.Input, []byte("job-input"))
	if err != nil {
		t.Fatal(err)
	}
	results := make([]SubmitResult, 0, jobs)
	homes := map[string]int{}
	for i := 0; i < jobs; i++ {
		res, err := d.Fed.Submit("tenant-hot", "hot-dataset", "Conv", w.Params, sealed, sched.SubmitOptions{Class: sched.ClassStandard})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		homes[res.Shard]++
	}
	spills := 0
	for i, res := range results {
		if _, err := res.Future.Wait(); err != nil {
			t.Fatalf("job %d on %s: %v", i, res.Shard, err)
		}
		if res.Spilled {
			spills++
		}
	}
	if spills == 0 {
		t.Fatalf("one hot session over a 1-device shard never spilled; placement: %v", homes)
	}
	if len(homes) < 2 {
		t.Fatalf("all %d jobs stayed on one shard: %v", jobs, homes)
	}
	st := d.Fed.Stats()
	if st.Spilled != uint64(spills) || st.Routed != uint64(jobs-spills) {
		t.Errorf("stats routed/spilled = %d/%d, want %d/%d", st.Routed, st.Spilled, jobs-spills, spills)
	}
	if st.Handoffs == 0 {
		t.Error("spill target was never keyed by hand-off")
	}
}

// TestFederationShardLeave checks leave semantics: the last key holder is
// pinned while unkeyed shards remain, a departed shard stops receiving
// routes, and traffic keeps flowing.
func TestFederationShardLeave(t *testing.T) {
	d := buildTestFederation(t, LocalSpec{
		Shards: 3, DevicesPerShard: 1,
		Federation: Config{SpillHighWater: 1e9},
	})

	if err := d.Fed.RemoveShard("gw0"); err == nil {
		t.Fatal("removed the only key holder while siblings are unkeyed")
	}
	if err := d.Fed.RemoveShard("gw9"); err == nil {
		t.Fatal("removed an unknown shard")
	}

	epoch0 := d.Fed.Ring().Epoch()
	if err := d.Fed.RemoveShard("gw2"); err != nil {
		t.Fatal(err)
	}
	if d.Fed.Ring().Epoch() == epoch0 {
		t.Error("epoch did not advance on leave")
	}
	for i := 0; i < 40; i++ {
		res := submitOne(t, d, "t", fmt.Sprintf("k-%d", i), int64(i))
		if res.Shard == "gw2" {
			t.Fatalf("job %d routed to departed shard", i)
		}
	}

	// gw1 is keyed now; the root may leave and gw1 becomes the donor anchor.
	if err := d.Fed.RemoveShard("gw0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		res := submitOne(t, d, "t2", fmt.Sprintf("k-%d", i), int64(i))
		if res.Shard != "gw1" {
			t.Fatalf("job routed to %s after every other shard left", res.Shard)
		}
	}
}

// TestFederationRejoinAfterLeave checks a brand-new shard can join a
// running federation and is keyed from the surviving members.
func TestFederationRejoinAfterLeave(t *testing.T) {
	d := buildTestFederation(t, LocalSpec{
		Shards: 2, DevicesPerShard: 1,
		Federation: Config{SpillHighWater: 1e9},
	})
	// Key gw1 by routing it traffic.
	for i := 0; i < 20; i++ {
		submitOne(t, d, "t", fmt.Sprintf("k-%d", i), int64(i))
	}

	handoffs0 := d.Fed.Stats().Handoffs
	if handoffs0 == 0 {
		t.Fatal("gw1 never keyed")
	}

	// gw1 leaves; a brand-new shard joins late on the same region fabric.
	if err := d.Fed.RemoveShard("gw1"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.JoinShard("gw2", "", 1); err != nil {
		t.Fatal(err)
	}
	for _, sh := range d.Fed.Stats().Shards {
		if sh.ID == "gw2" && (sh.Keyed || sh.Devices != 0) {
			t.Fatalf("late joiner keyed/registered before any traffic: %+v", sh)
		}
	}

	// Traffic keys the joiner from the survivors — no owner involvement.
	seen := map[string]bool{}
	for i := 0; i < 40; i++ {
		res := submitOne(t, d, "t", fmt.Sprintf("j-%d", i), int64(i))
		seen[res.Shard] = true
	}
	if !seen["gw2"] {
		t.Fatalf("late joiner never served traffic: %v", seen)
	}
	st := d.Fed.Stats()
	if st.Handoffs <= handoffs0 {
		t.Errorf("handoffs did not grow keying the joiner: %d -> %d", handoffs0, st.Handoffs)
	}
	for _, sh := range st.Shards {
		if sh.ID == "gw2" && (!sh.Keyed || sh.Devices != 1) {
			t.Errorf("late joiner after traffic: %+v", sh)
		}
	}
}

// TestOneShardSubmitAllocatesLikeScheduler: on a one-shard region the
// federation path — ring routing, pressure, keying check, modelled network
// charge — allocates nothing of its own, so Federation.SubmitBatch costs
// exactly what the shard's Scheduler.Submit costs for the same sealed job.
// That is what lets every gateway serve through a federation.
func TestOneShardSubmitAllocatesLikeScheduler(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	d := buildTestFederation(t, LocalSpec{Shards: 1, DevicesPerShard: 1})
	w := accel.GenConv(16, 16, 4, 1)
	sealed, err := cryptoutil.Seal(d.Key, w.Input, []byte("job-input"))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []core.SealedJob{{Params: w.Params, Input: sealed}}
	opt := sched.SubmitOptions{Class: sched.ClassStandard}
	sch := d.Managers[0].Scheduler()
	viaSched := func() {
		if _, err := sch.Submit("Conv", jobs, opt)[0].Wait(); err != nil {
			t.Fatal(err)
		}
	}
	viaFed := func() {
		futs, _, _, err := d.Fed.SubmitBatch("tenant-a", "dataset-7", "Conv", jobs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := futs[0].Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm both paths past a session rekey, then average over whole rekey
	// periods so each side pays the same share of them.
	for i := 0; i < core.DefaultSessionRekeyEvery; i++ {
		viaSched()
		viaFed()
	}
	runs := 4 * core.DefaultSessionRekeyEvery
	s, f := testing.AllocsPerRun(runs, viaSched), testing.AllocsPerRun(runs, viaFed)
	t.Logf("sealed job: Scheduler.Submit %.0f allocations, one-shard Federation.SubmitBatch %.0f", s, f)
	if f != s {
		t.Errorf("one-shard Federation.SubmitBatch allocates %.0f a job, Scheduler.Submit %.0f", f, s)
	}
}
