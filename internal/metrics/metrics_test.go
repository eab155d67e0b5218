package metrics

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("salus_test_events")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("salus_test_events"); again != c {
		t.Fatal("Counter() did not return the cached handle")
	}

	g := r.Gauge("salus_test_level")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	if again := r.Gauge("salus_test_level"); again != g {
		t.Fatal("Gauge() did not return the cached handle")
	}
}

func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Second, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0}, // exact bound stays in its bucket
		{time.Microsecond + time.Nanosecond, 1},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{maxFinite, numBuckets - 2},
		{maxFinite + time.Second, numBuckets - 1},
		{500 * time.Hour, numBuckets - 1},
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.d); got != tc.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
	// Every bucket's bound must map back into that bucket.
	for i := 0; i < numBuckets-1; i++ {
		if got := bucketIndex(BucketBound(i)); got != i {
			t.Errorf("bucketIndex(BucketBound(%d)) = %d", i, got)
		}
	}
	if BucketBound(numBuckets-1) >= 0 {
		t.Fatal("overflow bucket must report a negative bound")
	}
}

func TestHistogramSnapshotAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("salus_test_seconds")
	// 90 fast observations, 9 medium, 1 slow: p50 fast, p95/p99 split.
	for i := 0; i < 90; i++ {
		h.Observe(10 * time.Microsecond)
	}
	for i := 0; i < 9; i++ {
		h.Observe(2 * time.Millisecond)
	}
	h.Observe(400 * time.Millisecond)

	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	wantSum := 90*10*time.Microsecond + 9*2*time.Millisecond + 400*time.Millisecond
	if s.Sum != wantSum {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
	var bucketTotal uint64
	for _, b := range s.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != s.Count {
		t.Fatalf("sum of buckets %d != count %d", bucketTotal, s.Count)
	}
	if s.P50 > 16*time.Microsecond {
		t.Fatalf("p50 = %v, want <= 16µs", s.P50)
	}
	if s.P95 < time.Millisecond || s.P95 > 4*time.Millisecond {
		t.Fatalf("p95 = %v, want ~2ms bucket", s.P95)
	}
	if s.P99 < 200*time.Millisecond {
		t.Fatalf("p99 = %v, want >= 256ms bucket", s.P99)
	}
	if m := s.Mean(); m != wantSum/100 {
		t.Fatalf("mean = %v, want %v", m, wantSum/100)
	}
	if (HistogramSnapshot{}).Mean() != 0 {
		t.Fatal("empty snapshot mean must be 0")
	}
	if got := quantile(nil, 0, 0.5); got != 0 {
		t.Fatalf("quantile of empty = %v", got)
	}
}

func TestHistogramOverflowQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Hour) // everything in +Inf
	}
	s := h.Snapshot()
	if s.P99 != maxFinite {
		t.Fatalf("overflow p99 = %v, want clamp to %v", s.P99, maxFinite)
	}
	if len(s.Buckets) != numBuckets {
		t.Fatalf("overflow snapshot has %d buckets, want %d", len(s.Buckets), numBuckets)
	}
	if last := s.Buckets[len(s.Buckets)-1]; last.UpperBound >= 0 || last.Count != 10 {
		t.Fatalf("overflow bucket = %+v", last)
	}
}

func TestRegistrySnapshotAndReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("salus_a_total")
	g := r.Gauge("salus_b_depth")
	h := r.Histogram("salus_c_seconds")
	c.Add(3)
	g.Set(-2)
	h.Observe(time.Millisecond)

	s := r.Snapshot()
	if s.Counters["salus_a_total"] != 3 || s.Gauges["salus_b_depth"] != -2 || s.Histograms["salus_c_seconds"].Count != 1 {
		t.Fatalf("snapshot mismatch: %+v", s)
	}

	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["salus_a_total"] != 3 || back.Histograms["salus_c_seconds"].Count != 1 {
		t.Fatalf("JSON round trip lost data: %+v", back)
	}

	// Reset zeroes in place: cached handles stay live.
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("Reset did not zero metrics")
	}
	c.Inc()
	if r.Snapshot().Counters["salus_a_total"] != 1 {
		t.Fatal("handle dead after Reset")
	}
}

func TestSnapshotText(t *testing.T) {
	r := NewRegistry()
	r.Counter("salus_jobs_total").Add(12)
	r.Gauge("salus_queue_depth").Set(4)
	r.Histogram("salus_job_seconds").Observe(3 * time.Millisecond)
	out := r.Snapshot().String()
	for _, want := range []string{"salus_jobs_total", "12", "salus_queue_depth", "salus_job_seconds", "p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered snapshot missing %q:\n%s", want, out)
		}
	}
	names := r.Snapshot().SortedHistogramNames()
	if len(names) != 1 || names[0] != "salus_job_seconds" {
		t.Fatalf("sorted names = %v", names)
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[time.Duration]string{
		0:                       "0",
		25 * time.Microsecond:   "25µs",
		1500 * time.Microsecond: "1.5ms",
		2 * time.Second:         "2.00s",
	}
	for d, want := range cases {
		if got := fmtDur(d); got != want {
			t.Errorf("fmtDur(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"SM Enclv. Quote Gen.":    "sm_enclv_quote_gen",
		"Bitstream Verif. & Enc.": "bitstream_verif_enc",
		"CL Deployment":           "cl_deployment",
		"already_snake":           "already_snake",
		"  spaced  ":              "spaced",
		"":                        "",
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDefaultRegistryIsProcessWide(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() is not stable")
	}
}
