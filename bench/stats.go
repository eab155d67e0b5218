package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// rankOf is the nearest-rank position (1-based) of percentile p among n
// samples; the epsilon keeps 99.9 % of 10000 at 9990, not 9991.
func rankOf(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// percentile is the nearest-rank percentile of an ascending slice
// (p in 0..100); 0 for an empty slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[rankOf(p, len(asc))-1]
}

// median is the middle value (mean of the middle two for an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// tailPercentiles are the tails a timing may be reported at, highest first.
var tailPercentiles = []struct {
	label string
	p     float64
}{{"p99.9", 99.9}, {"p99", 99}, {"p95", 95}, {"p90", 90}}

// tail returns the highest percentile of an ascending slice that still has
// at least ten samples beyond it, with its label; ("", 0) when even p90
// does not (fewer than ~110 samples).
func tail(asc []float64) (string, float64) {
	for _, t := range tailPercentiles {
		if rank := rankOf(t.p, len(asc)); len(asc)-rank >= 10 {
			return t.label, asc[rank-1]
		}
	}
	return "", 0
}

// windowRate cuts completion stamps (ascending offsets from the start of a
// timed phase) into consecutive windows of w completions and returns the
// median of the windows' rates in completions per second. Each stamp may
// stand for several jobs (a batch call): perStamp scales the rate. With
// fewer than two full windows the whole span is one window.
func windowRate(done []time.Duration, w int, perStamp int) float64 {
	if len(done) < 2 {
		return 0
	}
	if w < 1 {
		w = 1
	}
	var rates []float64
	for i := 0; i+w < len(done); i += w {
		if span := (done[i+w] - done[i]).Seconds(); span > 0 {
			rates = append(rates, float64(w*perStamp)/span)
		}
	}
	if len(rates) < 2 {
		span := (done[len(done)-1] - done[0]).Seconds()
		if span <= 0 {
			return 0
		}
		return float64((len(done)-1)*perStamp) / span
	}
	return median(rates)
}

// spreadShare is the interquartile range of v as a share of its median,
// the run-to-run spread the acceptance rule compares against a bound.
// Quartiles are Python's statistics.quantiles(v, n=4) (exclusive method).
func spreadShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sorted(v)
	q := func(k float64) float64 {
		pos := k * float64(len(s)+1) / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// timeMedian runs fn until budget is spent or max runs were made (at
// least min) and returns the median duration and the run count.
func timeMedian(budget time.Duration, min, max int, fn func() error) (time.Duration, int, error) {
	var ds []float64
	for start := time.Now(); len(ds) < min || (len(ds) < max && time.Since(start) < budget); {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, len(ds), err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), len(ds), nil
}

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsUs converts a latency sample to ascending microseconds.
func durationsUs(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = usOf(x)
	}
	sort.Float64s(out)
	return out
}
