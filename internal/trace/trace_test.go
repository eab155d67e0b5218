package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestZeroValueUsable(t *testing.T) {
	var l Log
	if l.Total() != 0 {
		t.Error("empty log has nonzero total")
	}
	l.Record(PhaseCLAuth, time.Millisecond)
	if l.Total() != time.Millisecond {
		t.Errorf("total = %v", l.Total())
	}
}

func TestPhaseTotalAggregates(t *testing.T) {
	l := New()
	l.Record(PhaseBitManipulation, 10*time.Second)
	l.Record(PhaseBitManipulation, 3*time.Second)
	l.Record(PhaseUserRA, 2*time.Second)
	if got := l.PhaseTotal(PhaseBitManipulation); got != 13*time.Second {
		t.Errorf("PhaseTotal = %v, want 13s", got)
	}
	if got := l.Total(); got != 15*time.Second {
		t.Errorf("Total = %v, want 15s", got)
	}
}

func TestBreakdownOrderedByDuration(t *testing.T) {
	l := New()
	l.Record(PhaseUserRA, 2*time.Second)
	l.Record(PhaseBitManipulation, 13*time.Second)
	l.Record(PhaseLocalAttest, 836*time.Microsecond)
	b := l.Breakdown()
	if len(b) != 3 {
		t.Fatalf("breakdown has %d entries, want 3", len(b))
	}
	if b[0].Phase != PhaseBitManipulation || b[2].Phase != PhaseLocalAttest {
		t.Errorf("breakdown order wrong: %v", b)
	}
}

func TestSamplesReturnsCopy(t *testing.T) {
	l := New()
	l.Record(PhaseCLAuth, time.Millisecond)
	s := l.Samples()
	s[0].D = time.Hour
	if l.Total() != time.Millisecond {
		t.Error("mutating Samples() result affected the log")
	}
}

func TestStringContainsPhasesAndTotal(t *testing.T) {
	l := New()
	l.Record(PhaseBitManipulation, 13*time.Second)
	l.Record(PhaseUserRA, 2*time.Second)
	out := l.String()
	for _, want := range []string{"Bitstream Manipulation", "User RA", "TOTAL", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentRecord(t *testing.T) {
	l := New()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Record(PhaseNetwork, time.Millisecond)
		}()
	}
	wg.Wait()
	if got := l.PhaseTotal(PhaseNetwork); got != 50*time.Millisecond {
		t.Errorf("total = %v, want 50ms", got)
	}
}

func TestMergeCombinesSamples(t *testing.T) {
	a, b := New(), New()
	a.Record(PhaseBitManipulation, 10*time.Second)
	b.Record(PhaseBitManipulation, 3*time.Second)
	b.Record(PhaseUserRA, 2*time.Second)
	a.Merge(b)
	if got := a.PhaseTotal(PhaseBitManipulation); got != 13*time.Second {
		t.Errorf("merged PhaseTotal = %v, want 13s", got)
	}
	if got := a.Count(PhaseBitManipulation); got != 2 {
		t.Errorf("merged Count = %d, want 2", got)
	}
	// The source log is untouched and still usable.
	if got := b.Total(); got != 5*time.Second {
		t.Errorf("source total changed to %v", got)
	}
	a.Merge(nil) // no-op
	a.Merge(a)   // self-merge is a no-op, not a doubling
	if got := a.Count(PhaseBitManipulation); got != 2 {
		t.Errorf("self-merge changed count to %d", got)
	}
}

// TestMergeConcurrentWithRecord exercises Merge under the race detector:
// per-device boot traces merge into one fleet log while devices are still
// recording, including two logs merging into each other (the lock-order
// hazard Merge is documented to avoid).
func TestMergeConcurrentWithRecord(t *testing.T) {
	fleet := New()
	devices := make([]*Log, 4)
	for i := range devices {
		devices[i] = New()
	}
	var wg sync.WaitGroup
	for _, d := range devices {
		d := d
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				d.Record(PhaseBitManipulation, time.Microsecond)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				fleet.Merge(d)
			}
		}()
	}
	// Cross-merge two logs into each other concurrently: must not deadlock.
	wg.Add(2)
	go func() { defer wg.Done(); devices[0].Merge(devices[1]) }()
	go func() { defer wg.Done(); devices[1].Merge(devices[0]) }()
	wg.Wait()
	fleet.Merge(devices[2])
	if fleet.Count(PhaseBitManipulation) == 0 {
		t.Error("merged fleet log recorded nothing")
	}
}
