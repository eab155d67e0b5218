package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// TestSuiteSmoke runs every workload at -short sizing, untraced and
// traced, and checks the output against the contract in BENCHMARK.json.
func TestSuiteSmoke(t *testing.T) {
	// Traces and the document land in ./out of a scratch directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd) //nolint:errcheck // restoring the test's own directory
	doc, err := runSuite(1, suiteSizing(0, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.finish("out/BENCH_test.json"); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != len(workloadSpecs) {
		t.Fatalf("%d results for %d workloads", len(doc.Results), len(workloadSpecs))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, res := range doc.Results {
		if res.Workload != workloadSpecs[i].Name {
			t.Errorf("result %d is %q, want %q", i, res.Workload, workloadSpecs[i].Name)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d invalid=%v", res.Workload, res.Correct, res.Attempted, res.Failed, res.Invalid)
		}
		check := func(kind string, specs []metricSpec, got map[string]sample, nonZero bool) {
			if len(got) != len(specs) {
				t.Errorf("%s: %d %s metrics, BENCHMARK.json names %d", res.Workload, len(got), kind, len(specs))
			}
			for _, spec := range specs {
				s, ok := got[spec.Name]
				switch {
				case !name.MatchString(spec.Name):
					t.Errorf("metric name %q is outside the allowed alphabet", spec.Name)
				case !ok:
					t.Errorf("%s: %s metric %s not emitted", res.Workload, kind, spec.Name)
				case s.Unit != spec.Unit || s.Unit == "":
					t.Errorf("%s: %s has unit %q, want %q", res.Workload, spec.Name, s.Unit, spec.Unit)
				case math.IsNaN(s.Value) || math.IsInf(s.Value, 0):
					t.Errorf("%s: %s = %v", res.Workload, spec.Name, s.Value)
				case nonZero && s.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must never be 0", res.Workload, spec.Name, s.Value)
				}
			}
		}
		check("end_to_end", endToEndSpecs, res.EndToEnd, true)
		check("per_layer", perLayerSpecs, res.PerLayer, false)
		if _, err := os.Stat("out/trace-" + res.Workload + ".json"); err != nil {
			t.Errorf("%s: no span file: %v", res.Workload, err)
		}
	}

	// The document round-trips through its JSON schema.
	back, err := readDocument("out/BENCH_test.json")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(doc)
	b, _ := json.Marshal(back)
	if string(a) != string(b) {
		t.Error("document changed across a JSON round trip")
	}
	if err := compareDocs(doc, back); err != nil {
		t.Errorf("a document compared with itself: %v", err)
	}

	// What each workload exists to exercise did happen.
	layer := func(w, m string) float64 {
		for _, res := range doc.Results {
			if res.Workload == w {
				return res.PerLayer[m].Value
			}
		}
		return 0
	}
	for _, c := range []struct {
		workload, metric string
		want             float64
	}{
		{wBulk, "shell.transactions_per_job", 12}, // 1 secure start + 9 direct register frames + 2 DMA frames
		{wSmall, "rpc.calls_per_job", 1},
		{wBatch, "rpc.calls_per_job", 1.0 / 64},
		{wBootFleet, "smapp.manip_total", 1},
		{wBootFleet, "smapp.quote_generated", 1},
		{wBootCold, "model.tool_slowdown", 440},
	} {
		if got := layer(c.workload, c.metric); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s %s = %v, want %v", c.workload, c.metric, got, c.want)
		}
	}
	if got := layer(wOpen, "sched.overloaded"); got == 0 {
		t.Error("open-overload: the batch-class flood was never fast-rejected")
	}
	if got := layer(wFed, "federation.handoffs"); got == 0 {
		t.Error("fed-tenants: no sibling shard was keyed by hand-off")
	}
}

// TestManifestMatchesBenchmarkJSON keeps the root BENCHMARK.json and the
// tables in spec.go the same thing.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, built any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(buildManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &built); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, built) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with `go run -C bench . -manifest > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec{}, endToEndSpecs...), perLayerSpecs...) {
		if seen[s.Name] {
			t.Errorf("metric %s named twice", s.Name)
		}
		seen[s.Name] = true
	}
	var hasSetup bool
	for _, s := range endToEndSpecs {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		hasSetup = hasSetup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	asc := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n     int
		label string
		value float64
	}{
		{50, "", 0},            // p90 leaves 5 beyond
		{100, "p90", 90},       // p95 leaves 5, p90 leaves 10
		{200, "p95", 190},      // p99 leaves 2, p95 leaves 10
		{1000, "p99", 990},     // p99.9 leaves 1, p99 leaves 10
		{10000, "p99.9", 9990}, // p99.9 leaves 10
	} {
		label, value := tail(asc(c.n))
		if label != c.label || value != c.value {
			t.Errorf("tail of %d samples = %q %v, want %q %v", c.n, label, value, c.label, c.value)
		}
	}
}

func TestWindowRate(t *testing.T) {
	// 10 completions per 100 ms for 1 s, then a 1 s stall, then 1 s more:
	// the median window rate ignores the stall, jobs/wall does not.
	var done []time.Duration
	at := time.Duration(0)
	for i := 0; i < 200; i++ {
		if i == 100 {
			at += time.Second
		}
		at += 10 * time.Millisecond
		done = append(done, at)
	}
	if got := windowRate(done, 10, 1); math.Abs(got-100) > 1e-6 {
		t.Errorf("median window rate = %v, want 100", got)
	}
	if got := windowRate(done, 10, 64); math.Abs(got-6400) > 1e-6 {
		t.Errorf("batched median window rate = %v, want 6400", got)
	}
	if got := windowRate(done[:5], 10, 1); math.Abs(got-100) > 1e-6 {
		t.Errorf("short sample falls back to its span: %v, want 100", got)
	}
	if got := windowRate(nil, 10, 1); got != 0 {
		t.Errorf("empty sample = %v", got)
	}
}

func TestMedianOfRounds(t *testing.T) {
	rounds := []round{
		{setup: 3 * time.Second, calls: []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}, rate: 10, jobs: 10, mallocs: 100, bytes: 10240, attempted: 3},
		{setup: time.Second, calls: []time.Duration{7 * time.Millisecond}, rate: 30, jobs: 10, mallocs: 300, bytes: 30720, attempted: 1},
		{setup: 2 * time.Second, calls: []time.Duration{4 * time.Millisecond}, rate: 20, jobs: 10, mallocs: 200, bytes: 20480, attempted: 1, failed: 1},
	}
	got, attempted, failed, _ := endToEnd(rounds)
	want := map[string]float64{"setup_s": 2, "call_p50_us": 4000, "jobs_per_s": 20, "allocs_per_job": 20, "alloc_kb_per_job": 2}
	for k, v := range want {
		if got[k].Value != v {
			t.Errorf("%s = %v, want %v (rounds %v)", k, got[k].Value, v, got[k].Rounds)
		}
	}
	if attempted != 5 || failed != 1 {
		t.Errorf("attempted %d failed %d, want 5 and 1", attempted, failed)
	}
	if got["call_p50_us"].N != 5 {
		t.Errorf("call_p50_us sample count %d, want 5", got["call_p50_us"].N)
	}
}

func TestSpreadShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spreadShare(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spreadShare = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{"call_p50_us", "us", "lower", 0.10}
	higher := metricSpec{"jobs_per_s", "1/s", "higher", 0.10}
	steady := func(v float64) sample { return sample{Value: v, Rounds: []float64{v * 0.99, v, v * 1.01}} }
	noisy := func(v float64) sample { return sample{Value: v, Rounds: []float64{v * 0.7, v, v * 1.3}} }
	for _, c := range []struct {
		spec     metricSpec
		old, new sample
		want     string
	}{
		{lower, steady(100), steady(105), vSame},
		{lower, steady(100), steady(120), vWorse},
		{lower, steady(100), steady(80), vBetter},
		{higher, steady(100), steady(80), vWorse},
		{higher, steady(100), steady(120), vBetter},
		{lower, noisy(100), steady(120), vUnresolved},
		{lower, noisy(100), steady(50), vBetter}, // every new round beats every old one
	} {
		if _, got := verdict(c.spec, c.old, c.new); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.spec.Name, c.old.Value, c.new.Value, got, c.want)
		}
	}
}
