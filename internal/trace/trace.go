// Package trace records phase-stamped durations during the Salus secure
// boot flow so the Figure 9 booting-time breakdown can be regenerated.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Phase identifies one segment of the CL booting timeline. The names match
// the legend of Figure 9 in the paper.
type Phase string

// Boot phases, in the order they appear in the paper's stacked bars.
const (
	PhaseSMQuoteGen      Phase = "SM Enclv. Quote Gen."
	PhaseSMQuoteVerify   Phase = "SM Enclv. Quote Verif."
	PhaseBitVerifyEnc    Phase = "Bitstream Verif. & Enc."
	PhaseBitManipulation Phase = "Bitstream Manipulation"
	PhaseUserQuoteGen    Phase = "User Enclv. Quote Gen."
	PhaseUserQuoteVerify Phase = "User Enclv. Quote Verif."
	PhaseLocalAttest     Phase = "Local Attestation"
	PhaseKeyDistribution Phase = "Device Key Dist."
	PhaseCLDeployment    Phase = "CL Deployment"
	PhaseCLAuth          Phase = "CL Authentication"
	PhaseUserRA          Phase = "User RA"
	PhaseNetwork         Phase = "Network Transfer"
)

// Sample is one recorded duration for a phase.
type Sample struct {
	Phase Phase
	D     time.Duration
}

// Log accumulates phase samples. The zero value is ready to use and safe
// for concurrent recording.
type Log struct {
	mu      sync.Mutex
	samples []Sample
}

// New returns an empty log.
func New() *Log { return &Log{} }

// Record appends a sample for the phase.
func (l *Log) Record(p Phase, d time.Duration) {
	l.mu.Lock()
	l.samples = append(l.samples, Sample{Phase: p, D: d})
	l.mu.Unlock()
}

// Samples returns a copy of all samples in recording order.
func (l *Log) Samples() []Sample {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Sample, len(l.samples))
	copy(out, l.samples)
	return out
}

// Merge appends every sample of other into l. Both logs stay usable and
// safe for concurrent recording throughout; other is read under its own
// lock (via Samples) before l's lock is taken, so Merge never holds two
// locks at once and two logs merging into each other cannot deadlock.
// Merging a log into itself is a no-op. Parallel fleet boots use this to
// combine per-device boot traces into one Figure-9 report.
func (l *Log) Merge(other *Log) {
	if other == nil || other == l {
		return
	}
	samples := other.Samples()
	l.mu.Lock()
	l.samples = append(l.samples, samples...)
	l.mu.Unlock()
}

// Count returns how many samples were recorded for the phase — distinct
// from PhaseTotal, which sums them. Cache-effectiveness tests use this to
// assert a phase ran exactly once across a merged fleet trace.
func (l *Log) Count(p Phase) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, s := range l.samples {
		if s.Phase == p {
			n++
		}
	}
	return n
}

// Total returns the sum of all recorded durations.
func (l *Log) Total() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var t time.Duration
	for _, s := range l.samples {
		t += s.D
	}
	return t
}

// PhaseTotal returns the sum of durations recorded for the phase.
func (l *Log) PhaseTotal(p Phase) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var t time.Duration
	for _, s := range l.samples {
		if s.Phase == p {
			t += s.D
		}
	}
	return t
}

// Breakdown aggregates samples per phase, ordered by descending total.
func (l *Log) Breakdown() []Sample {
	l.mu.Lock()
	agg := make(map[Phase]time.Duration)
	order := make([]Phase, 0)
	for _, s := range l.samples {
		if _, ok := agg[s.Phase]; !ok {
			order = append(order, s.Phase)
		}
		agg[s.Phase] += s.D
	}
	l.mu.Unlock()

	out := make([]Sample, 0, len(order))
	for _, p := range order {
		out = append(out, Sample{Phase: p, D: agg[p]})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].D > out[j].D })
	return out
}

// String renders the breakdown as an aligned table with percentages,
// suitable for terminal output next to the paper's Figure 9.
func (l *Log) String() string {
	total := l.Total()
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s %7s\n", "Phase", "Time", "Share")
	for _, s := range l.Breakdown() {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(s.D) / float64(total)
		}
		fmt.Fprintf(&b, "%-28s %12s %6.1f%%\n", s.Phase, s.D.Round(time.Microsecond), pct)
	}
	fmt.Fprintf(&b, "%-28s %12s\n", "TOTAL", total.Round(time.Microsecond))
	return b.String()
}
