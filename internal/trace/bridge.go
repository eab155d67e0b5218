package trace

import (
	"time"

	"salus/internal/metrics"
)

// Bridge between the per-boot phase traces (this package) and the
// fleet-wide aggregate metrics (internal/metrics), in both directions, so
// an operator reading `salus-client top` and an engineer reading a
// Figure-9 trace see the same numbers.

// FeedHistograms observes every sample of the log into a per-phase
// histogram of reg named prefix + sanitized phase + "_seconds"
// (e.g. prefix "salus_fleet_boot_" and phase "CL Deployment" feed
// "salus_fleet_boot_cl_deployment_seconds"). The fleet manager calls this
// once per adopted member, so aggregate boot-phase histograms track the
// merged fleet trace sample for sample.
func FeedHistograms(reg *metrics.Registry, l *Log, prefix string) {
	for _, s := range l.Samples() {
		reg.Histogram(prefix + metrics.SanitizeName(string(s.Phase)) + "_seconds").Observe(s.D)
	}
}

// FromHistogram folds a metrics histogram snapshot into the log under the
// phase: one synthetic sample per non-empty bucket, scaled so the phase's
// total duration equals the histogram's Sum exactly. PhaseTotal, Breakdown
// and String therefore agree with the aggregate metric; Count
// reports the number of non-empty buckets, not the observation count (the
// histogram has already aggregated those away).
func (l *Log) FromHistogram(p Phase, s metrics.HistogramSnapshot) {
	if s.Count == 0 {
		return
	}
	// Approximate each bucket's share by count × upper bound, then scale the
	// shares so they sum to the exact recorded total.
	weights := make([]float64, 0, len(s.Buckets))
	var totalW float64
	for _, b := range s.Buckets {
		if b.Count == 0 {
			weights = append(weights, 0)
			continue
		}
		bound := b.UpperBound
		if bound < 0 {
			bound = metrics.BucketBound(len(s.Buckets) - 2)
			if bound < 0 {
				bound = time.Second
			}
		}
		w := float64(b.Count) * float64(bound)
		weights = append(weights, w)
		totalW += w
	}
	if totalW == 0 {
		l.Record(p, s.Sum)
		return
	}
	var assigned time.Duration
	lastIdx := -1
	for i, w := range weights {
		if w == 0 {
			continue
		}
		lastIdx = i
	}
	for i, w := range weights {
		if w == 0 {
			continue
		}
		d := time.Duration(float64(s.Sum) * (w / totalW))
		if i == lastIdx {
			d = s.Sum - assigned // absorb rounding drift: totals match exactly
		}
		assigned += d
		l.Record(p, d)
	}
}
