package main

import (
	"fmt"
	"runtime"
	"time"

	"salus/internal/metrics"
)

// round is what one fresh set-up plus one timed phase measured.
type round struct {
	setup     time.Duration   // deploy + attest + warm-up, up to the first timed op
	calls     []time.Duration // per-call latency of the timed phase
	rate      float64         // verified jobs per second, median fixed-count window
	jobs      int             // verified jobs the allocation counters cover
	attempted int
	failed    int
	mallocs   uint64 // runtime.MemStats deltas over the timed phase,
	bytes     uint64 // client and gateway together (one process)
	invalid   []string
}

// workload is one named traffic shape.
type workload interface {
	// rounds runs fresh set-ups and timed phases for about d in total and
	// returns at least one round.
	rounds(d time.Duration) ([]round, error)
	// traced runs the traced pass and the layer replays in about d and
	// returns per-layer values by name and the calls it attempted and
	// saw fail.
	traced(d time.Duration, tr *tracer) (vals map[string]float64, attempted, failed int, err error)
}

// sample is one reported metric: the median of its per-round values, the
// raw rounds, and for timings the sample count and supported tail.
type sample struct {
	Value     float64   `json:"value"`
	Unit      string    `json:"unit"`
	Rounds    []float64 `json:"rounds,omitempty"`
	N         int       `json:"n,omitempty"`
	Tail      string    `json:"tail,omitempty"`
	TailValue float64   `json:"tail_value,omitempty"`
}

// result is one workload's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Invalid   []string          `json:"invalid,omitempty"`
	EndToEnd  map[string]sample `json:"end_to_end,omitempty"`
	PerLayer  map[string]sample `json:"per_layer,omitempty"`
}

// endToEnd folds rounds into the gated metrics: each is the median of its
// per-round values.
func endToEnd(rs []round) (map[string]sample, int, int, []string) {
	var setup, p50, rate, allocs, kb []float64
	var all []time.Duration
	var attempted, failed int
	var invalid []string
	for _, r := range rs {
		attempted += r.attempted
		failed += r.failed
		invalid = append(invalid, r.invalid...)
		setup = append(setup, r.setup.Seconds())
		all = append(all, r.calls...)
		if len(r.calls) > 0 {
			p50 = append(p50, percentile(durationsUs(r.calls), 50))
		}
		if r.rate > 0 {
			rate = append(rate, r.rate)
		}
		if r.jobs > 0 {
			allocs = append(allocs, float64(r.mallocs)/float64(r.jobs))
			kb = append(kb, float64(r.bytes)/1024/float64(r.jobs))
		}
	}
	mk := func(name string, rounds []float64) sample {
		return sample{Value: median(rounds), Unit: unitOf(endToEndSpecs, name), Rounds: rounds}
	}
	out := map[string]sample{
		"setup_s":          mk("setup_s", setup),
		"call_p50_us":      mk("call_p50_us", p50),
		"jobs_per_s":       mk("jobs_per_s", rate),
		"allocs_per_job":   mk("allocs_per_job", allocs),
		"alloc_kb_per_job": mk("alloc_kb_per_job", kb),
	}
	c := out["call_p50_us"]
	asc := durationsUs(all)
	c.N = len(asc)
	c.Tail, c.TailValue = tail(asc)
	out["call_p50_us"] = c
	return out, attempted, failed, invalid
}

// memDelta reads allocation counters around a timed phase.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) stop() (mallocs, bytes uint64, after runtime.MemStats) {
	runtime.ReadMemStats(&after)
	return after.Mallocs - m.before.Mallocs, after.TotalAlloc - m.before.TotalAlloc, after
}

// settle waits for the process's goroutine count to return to baseline
// after a deployment closed; a count that stays above it is a leak.
func settle(baseline int) error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutines %d after teardown, baseline %d", n, baseline)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// registryDelta is the change of the process-wide metrics registry over a
// phase. Gauges are read as they stand at the end.
type registryDelta struct{ before, after metrics.Snapshot }

func startRegistry() *registryDelta {
	return &registryDelta{before: metrics.Default().Snapshot()}
}

func (d *registryDelta) stop() *registryDelta {
	d.after = metrics.Default().Snapshot()
	return d
}

func (d *registryDelta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

func (d *registryDelta) gauge(name string) float64 { return float64(d.after.Gauges[name]) }

// histMeanUs is the mean of the observations a histogram gained, in us.
func (d *registryDelta) histMeanUs(name string) float64 {
	a, b := d.after.Histograms[name], d.before.Histograms[name]
	n := a.Count - b.Count
	if n == 0 {
		return 0
	}
	return usOf(a.Sum-b.Sum) / float64(n)
}

// checkScheduler applies the serving invariants after a workload's timed
// phase: the queue gauge is back at zero and every submitted job resolved
// exactly once (failed includes shed and fast-rejected jobs).
func (d *registryDelta) checkScheduler() []string {
	var bad []string
	if q := d.gauge("salus_sched_queue_depth"); q != 0 {
		bad = append(bad, fmt.Sprintf("salus_sched_queue_depth = %v after the run, want 0", q))
	}
	sub, done, failed := d.counter("salus_sched_submitted_total"), d.counter("salus_sched_completed_total"), d.counter("salus_sched_failed_total")
	if sub != done+failed {
		bad = append(bad, fmt.Sprintf("sched submitted %v != completed %v + failed %v", sub, done, failed))
	}
	return bad
}
