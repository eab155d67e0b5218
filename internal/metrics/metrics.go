// Package metrics is the fleet-wide observability layer of the Salus
// serving stack: a dependency-free, concurrency-safe registry of counters,
// gauges, and fixed-bucket latency histograms, cheap enough to sit on the
// per-job hot path.
//
// # Design
//
// Recording is lock-free: a Counter or Gauge is a single atomic word, and a
// Histogram is an array of per-bucket atomic counters indexed by bit length
// of the observed duration — no locks, no allocation, no map lookup on
// record. The registry's maps are only consulted at *handle* acquisition
// (get-or-create under a mutex); instrumented packages acquire their
// handles once in package variables and record through the cached pointer.
//
// Snapshots are taken concurrently with recording. A histogram snapshot's
// Count is derived from its bucket counts, so "sum of buckets == count" is
// a structural invariant rather than a racy coincidence; the Sum is read
// before the buckets, so Sum never exceeds what the snapshotted buckets
// account for (see Histogram.Observe for the ordering contract).
//
// # Naming scheme
//
// Metric names are lowercase snake_case, prefixed by the owning subsystem:
//
//	salus_rpc_server_inflight          salus_sched_queue_depth
//	salus_rpc_client_call_seconds      salus_fleet_boot_seconds
//	salus_smapp_prepared_manip_hits    salus_core_job_seconds
//
// Counters count events and never decrease; gauges track a current level;
// histogram names end in _seconds and record durations.
package metrics

import (
	"encoding/json"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry owns a namespace of metrics. The zero value is not usable; use
// NewRegistry, or the process-wide Default registry that the Salus serving
// stack records into.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-wide registry; see Default.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the Salus serving stack
// (rpc, sched, fleet, smapp, core) records into and the cluster gateways
// export.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use. Call once
// and cache the handle; the map lookup is mutex-guarded.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Reset zeroes every registered metric in place. Handles cached by
// instrumented packages remain valid and keep recording into the same
// metrics; only the accumulated values are dropped. Benchmarks use this to
// measure one run's traffic in isolation.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.histograms {
		h.Reset()
	}
}

// Counter is a monotonically increasing event count. Obtain counters from
// a Registry.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a current-level value that can move both ways (queue depth,
// in-flight requests, fleet size). Obtain gauges from a Registry.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set forces the gauge to v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram bucket layout: bucket i spans durations whose microsecond count
// has bit length i, i.e. exponentially growing bounds 1µs, 2µs, 4µs, ...
// up to bucket numBuckets-2 (~34s); the last bucket is the overflow (+Inf).
// Sub-microsecond observations land in bucket 0. The layout is fixed so
// recording needs no configuration and snapshots from different processes
// line up bucket-for-bucket.
const (
	numBuckets = 27
	// maxFinite is the upper bound of the last finite bucket.
	maxFinite = time.Duration(1) << (numBuckets - 2) * time.Microsecond
)

// BucketBound returns the inclusive upper bound of bucket i, or a negative
// duration for the overflow bucket.
func BucketBound(i int) time.Duration {
	if i >= numBuckets-1 {
		return -1 // +Inf
	}
	return time.Duration(1<<i) * time.Microsecond
}

// bucketIndex maps a duration to its bucket.
func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	us := uint64((d + time.Microsecond - 1) / time.Microsecond) // ceiling: 1.5µs must not round below its bucket
	i := bits.Len64(us)                                         // 0 for sub-µs, else position of the top bit + 1
	if i > 0 && us == 1<<(i-1) {
		i-- // exact powers of two sit at their own bound, not above it
	}
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// Histogram accumulates durations into fixed exponential buckets. Obtain
// histograms from a Registry. Recording is one atomic add per bucket plus
// one for the running sum; there is no lock and no allocation.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	sum     atomic.Int64 // nanoseconds
}

// Observe records one duration.
//
// Ordering contract with Snapshot: the bucket is incremented before the
// sum, and Snapshot reads the sum before the buckets. A concurrent snapshot
// can therefore observe a bucket increment whose sum contribution is still
// in flight — Sum is a momentary floor — but never a Sum that counts an
// observation the buckets do not.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketIndex(d)].Add(1)
	if d > 0 {
		h.sum.Add(int64(d))
	}
}

// Since records the elapsed wall time from start — the common
// instrumentation shape `defer h.Since(time.Now())`.
func (h *Histogram) Since(start time.Time) { h.Observe(time.Since(start)) }

// Bucket is one histogram bucket in a snapshot: the count of observations
// with duration <= UpperBound (non-cumulative). A negative UpperBound marks
// the overflow (+Inf) bucket.
type Bucket struct {
	UpperBound time.Duration `json:"le"`
	Count      uint64        `json:"count"`
}

// HistogramSnapshot is a moment-in-time view of a histogram. Count always
// equals the sum of Buckets[i].Count — it is derived from the same reads.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     time.Duration `json:"sum"`
	P50     time.Duration `json:"p50"`
	P95     time.Duration `json:"p95"`
	P99     time.Duration `json:"p99"`
	Buckets []Bucket      `json:"buckets,omitempty"`
}

// Mean returns the average observed duration, or 0 with no observations.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Snapshot captures the histogram's current state. Safe concurrently with
// Observe; see Observe for the Sum/Count ordering guarantee. Zero-count
// trailing buckets are trimmed.
func (h *Histogram) Snapshot() HistogramSnapshot { return Merge(h) }

// Merge snapshots several histograms as one: buckets add index for index
// and the quantiles are recomputed over the sum, as MergeSnapshots does
// across processes. A sliding window merges its ring of sub-histograms so.
func Merge(hs ...*Histogram) HistogramSnapshot {
	var counts [numBuckets]uint64
	var sum time.Duration
	for _, h := range hs {
		sum += time.Duration(h.sum.Load())
		for i := range h.buckets {
			counts[i] += h.buckets[i].Load()
		}
	}
	return snapshotOf(&counts, sum)
}

// Reset zeroes the histogram in place; its handle keeps recording.
func (h *Histogram) Reset() {
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// snapshotOf is the snapshot of a histogram with these bucket counts and
// sum.
func snapshotOf(counts *[numBuckets]uint64, sum time.Duration) HistogramSnapshot {
	snap := HistogramSnapshot{Sum: sum}
	last := -1
	for i, n := range counts {
		snap.Count += n
		if n > 0 {
			last = i
		}
	}
	if last >= 0 {
		snap.Buckets = make([]Bucket, last+1)
		for i := range snap.Buckets {
			snap.Buckets[i] = Bucket{UpperBound: BucketBound(i), Count: counts[i]}
		}
	}
	snap.P50 = quantile(counts[:], snap.Count, 0.50)
	snap.P95 = quantile(counts[:], snap.Count, 0.95)
	snap.P99 = quantile(counts[:], snap.Count, 0.99)
	return snap
}

// quantile estimates the q-quantile as the upper bound of the bucket where
// the cumulative count crosses q*total. Observations in the overflow bucket
// report the last finite bound — the histogram cannot resolve beyond it.
func quantile(counts []uint64, total uint64, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum > rank {
			if b := BucketBound(i); b >= 0 {
				return b
			}
			return maxFinite
		}
	}
	return maxFinite
}

// Snapshot is a structured, JSON-marshalable view of a whole registry —
// what the Cluster.Metrics RPC returns and salus-server's periodic dump
// renders.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric in the registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make([]namedCounter, 0, len(r.counters))
	for name, c := range r.counters {
		counters = append(counters, namedCounter{name, c})
	}
	gauges := make([]namedGauge, 0, len(r.gauges))
	for name, g := range r.gauges {
		gauges = append(gauges, namedGauge{name, g})
	}
	hists := make([]namedHistogram, 0, len(r.histograms))
	for name, h := range r.histograms {
		hists = append(hists, namedHistogram{name, h})
	}
	r.mu.Unlock()

	// Values are read outside the registry lock: a snapshot must never
	// stall hot-path handle acquisition, and each read is atomic anyway.
	snap := Snapshot{
		Counters:   make(map[string]uint64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for _, nc := range counters {
		snap.Counters[nc.name] = nc.c.Value()
	}
	for _, ng := range gauges {
		snap.Gauges[ng.name] = ng.g.Value()
	}
	for _, nh := range hists {
		snap.Histograms[nh.name] = nh.h.Snapshot()
	}
	return snap
}

type namedCounter struct {
	name string
	c    *Counter
}
type namedGauge struct {
	name string
	g    *Gauge
}
type namedHistogram struct {
	name string
	h    *Histogram
}

// MarshalJSON keeps Snapshot's wire form stable (plain maps).
func (s Snapshot) MarshalJSON() ([]byte, error) {
	type alias Snapshot
	return json.Marshal(alias(s))
}

// SortedCounterNames returns the snapshot's counter names sorted — the
// rendering helpers and tests want deterministic order.
func (s Snapshot) SortedCounterNames() []string { return sortedKeys(s.Counters) }

// SortedGaugeNames returns the snapshot's gauge names sorted.
func (s Snapshot) SortedGaugeNames() []string { return sortedKeys(s.Gauges) }

// SortedHistogramNames returns the snapshot's histogram names sorted.
func (s Snapshot) SortedHistogramNames() []string { return sortedKeys(s.Histograms) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SanitizeName maps an arbitrary label (e.g. a trace phase like
// "SM Enclv. Quote Gen.") onto the metric naming scheme: lowercase
// snake_case with runs of non-alphanumerics collapsed to one underscore.
func SanitizeName(s string) string {
	out := make([]byte, 0, len(s))
	pendingSep := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'A' && c <= 'Z':
			c += 'a' - 'A'
			fallthrough
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			if pendingSep && len(out) > 0 {
				out = append(out, '_')
			}
			pendingSep = false
			out = append(out, c)
		default:
			pendingSep = true
		}
	}
	return string(out)
}
