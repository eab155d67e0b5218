package metrics

import (
	"os"
	"testing"
	"time"
)

// BenchmarkHotPathRecord measures the instrumentation cost one job pays on
// the scheduler hot path: one counter increment plus one histogram
// observation. `make bench-metrics` asserts this
// stays under ~100ns/op.
func BenchmarkHotPathRecord(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("salus_bench_total")
	h := r.Histogram("salus_bench_seconds")
	d := 42 * time.Microsecond
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(d)
	}
}

// BenchmarkHotPathParallel records from GOMAXPROCS goroutines into the same
// histogram — the contended shape of a busy multi-device scheduler.
func BenchmarkHotPathParallel(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("salus_bench_total")
	h := r.Histogram("salus_bench_seconds")
	d := 42 * time.Microsecond
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
			h.Observe(d)
		}
	})
}

// TestHotPathBudget is the bench-metrics smoke gate: with
// SALUS_BENCH_SMOKE=1 it measures the enabled counter+histogram record and
// fails if it exceeds the ~100ns/op hot-path budget. Skipped in ordinary
// test runs — wall-clock assertions do not belong in `go test ./...`.
func TestHotPathBudget(t *testing.T) {
	if os.Getenv("SALUS_BENCH_SMOKE") == "" {
		t.Skip("set SALUS_BENCH_SMOKE=1 (make bench-metrics) to run the hot-path budget gate")
	}
	res := testing.Benchmark(BenchmarkHotPathRecord)
	perOp := res.NsPerOp()
	t.Logf("enabled counter+histogram record: %d ns/op", perOp)
	if perOp > 100 {
		t.Fatalf("hot-path record costs %d ns/op, budget is 100 ns/op", perOp)
	}
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("hot-path record allocates %d objects/op, want 0", allocs)
	}
}
