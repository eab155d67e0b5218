package sched

import (
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/metrics"
)

// The scheduler records into the process-wide default registry, so these
// tests assert on deltas between snapshots — other tests in the package may
// have recorded before us.

func TestSchedulerMetricsHappyPath(t *testing.T) {
	systems, key := newPool(t, 2, accel.Conv{})
	s := newScheduler(t, systems)

	before := metrics.Default().Snapshot()
	const jobs = 6
	for i := 0; i < jobs; i++ {
		if _, err := submitW(s, key, accel.GenConv(4, 4, 1, int64(i))).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	after := metrics.Default().Snapshot()

	if d := after.Counters["salus_sched_submitted_total"] - before.Counters["salus_sched_submitted_total"]; d != jobs {
		t.Errorf("submitted delta = %d, want %d", d, jobs)
	}
	if d := after.Counters["salus_sched_completed_total"] - before.Counters["salus_sched_completed_total"]; d != jobs {
		t.Errorf("completed delta = %d, want %d", d, jobs)
	}
	for _, h := range []string{"salus_sched_wait_seconds", "salus_sched_service_seconds", "salus_sched_job_seconds"} {
		if d := after.Histograms[h].Count - before.Histograms[h].Count; d != jobs {
			t.Errorf("%s count delta = %d, want %d", h, d, jobs)
		}
	}
	// Every reserved slot was released: the aggregate queue gauge is back
	// where it started.
	if after.Gauges["salus_sched_queue_depth"] != before.Gauges["salus_sched_queue_depth"] {
		t.Errorf("queue depth gauge leaked: %d -> %d",
			before.Gauges["salus_sched_queue_depth"], after.Gauges["salus_sched_queue_depth"])
	}
	// End-to-end latency can never be below on-device service latency.
	if after.Histograms["salus_sched_job_seconds"].Sum < after.Histograms["salus_sched_service_seconds"].Sum-before.Histograms["salus_sched_service_seconds"].Sum {
		t.Error("job latency sum below service latency sum")
	}
}

func TestSchedulerMetricsQuarantineEvents(t *testing.T) {
	systems, key, inj := newFaultyPool(t, 2, 0)
	s := New(Config{QuarantineAfter: 1, QuarantineBase: 5 * time.Millisecond, QuarantineMax: 10 * time.Millisecond})
	for _, sys := range systems {
		if err := s.Register(sys); err != nil {
			t.Fatal(err)
		}
	}
	defer s.Close()
	sick := systems[0].Device.DNA()

	before := metrics.Default().Snapshot()
	inj.Break()
	w := accel.GenConv(4, 4, 1, 3)
	for i := 0; i < 8 && !findStats(t, s, sick).Quarantined; i++ {
		if _, err := submitW(s, key, w).Wait(); err != nil {
			t.Fatalf("job during breakage: %v", err)
		}
	}
	mid := metrics.Default().Snapshot()
	if mid.Counters["salus_sched_quarantine_total"] <= before.Counters["salus_sched_quarantine_total"] {
		t.Error("quarantine trip not counted")
	}
	if mid.Counters["salus_sched_redispatched_total"] <= before.Counters["salus_sched_redispatched_total"] {
		t.Error("redispatch not counted")
	}

	// Heal; a successful probe must count a readmission.
	inj.Heal()
	deadline := time.Now().Add(10 * time.Second)
	for findStats(t, s, sick).Quarantined {
		if time.Now().After(deadline) {
			t.Fatal("device never readmitted")
		}
		if _, err := submitW(s, key, w).Wait(); err != nil {
			t.Fatal(err)
		}
		//lint:allow test-sleep poll interval inside a deadline-bounded readmission loop; the sleep only paces probes
		time.Sleep(2 * time.Millisecond)
	}
	after := metrics.Default().Snapshot()
	if after.Counters["salus_sched_readmit_total"] <= before.Counters["salus_sched_readmit_total"] {
		t.Error("readmission not counted")
	}
}
