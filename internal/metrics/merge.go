package metrics

import "time"

// MergeSnapshots combines per-process snapshots into one fleet-wide view:
// counters sum, gauges sum (every gauge in this codebase is a level whose
// fleet aggregate is the sum — queue depths, device counts, pressure
// readings scale with membership), and histograms merge bucket-for-bucket
// with the quantiles recomputed over the merged distribution. The merge is
// exact, not an approximation: the bucket layout is fixed (BucketBound), so
// snapshots taken by different gateway processes line up index-for-index,
// and a quantile over summed buckets equals the quantile the fleet would
// have reported from one shared histogram.
//
// `salus-client top` uses this to render one health board over a
// comma-separated list of gateways.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	counts := make(map[string]*[numBuckets]uint64)
	sums := make(map[string]time.Duration)
	for _, s := range snaps {
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] += v
		}
		for k, h := range s.Histograms {
			c, ok := counts[k]
			if !ok {
				c = new([numBuckets]uint64)
				counts[k] = c
			}
			// Buckets are index-aligned with BucketBound by construction;
			// anything past the fixed layout is clamped into the overflow.
			for i, b := range h.Buckets {
				if i >= numBuckets {
					i = numBuckets - 1
				}
				c[i] += b.Count
			}
			sums[k] += h.Sum
		}
	}
	for k, c := range counts {
		out.Histograms[k] = snapshotOf(c, sums[k])
	}
	return out
}
