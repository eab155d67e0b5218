package sched

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"salus/internal/core"
	"salus/internal/metrics"
)

// TestProbeEndsOnRejectionAndShed: a half-open probe that ends without a
// verdict, as a deliberate rejection or a deadline shed, must not leave the
// board unadmissible: with a healthy sibling taking all other work, a board
// whose probe never ends is never probed again, so never readmitted.
func TestProbeEndsOnRejectionAndShed(t *testing.T) {
	rejected := errors.New("job rejected")
	cfg := Config{MaxRetries: 1, QuarantineAfter: 1, QuarantineBase: time.Second, QuarantineMax: time.Minute}
	t0 := time.Unix(1000, 0)
	probeAt := t0.Add(cfg.QuarantineBase)

	for _, tc := range []struct {
		name string
		end  func(s *Scheduler, d *device, e *entry)
	}{
		{"rejection", func(s *Scheduler, d *device, e *entry) {
			d.finish(s, e, nil, rejected)
		}},
		// The entry runs, but each of its jobs is rejected on its own.
		{"partial rejection", func(s *Scheduler, d *device, e *entry) {
			d.finish(s, e, []core.BatchResult{{Err: rejected}, {Err: fmt.Errorf("input: %w", rejected)}}, nil)
		}},
		{"shed", func(s *Scheduler, d *device, e *entry) {
			d.shedExpired(e)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &Scheduler{cfg: cfg}
			d := &device{rpGauge: metrics.NewRegistry().Gauge("rp_queue_depth")}
			d.onFault(t0, &s.cfg)
			if d.admissible(probeAt.Add(-time.Nanosecond)) {
				t.Fatal("quarantined board admissible before its probe time")
			}
			if !d.admissible(probeAt) {
				t.Fatal("quarantined board not admissible at its probe time")
			}
			d.beginProbe()
			if d.admissible(probeAt) {
				t.Fatal("board admitted a second probe while one is in flight")
			}

			e := newEntry(2, SubmitOptions{})
			e.add(core.SealedJob{})
			e.add(core.SealedJob{})
			tc.end(s, d, e)
			for i, f := range e.futs {
				select {
				case <-f.Done():
				default:
					t.Fatalf("job %d unresolved, want its rejection", i)
				}
				if _, err := f.Wait(); err == nil {
					t.Fatalf("job %d succeeded, want its rejection", i)
				}
			}
			if !d.admissible(probeAt) {
				t.Error("probe ended without a verdict, yet the board is still unadmissible")
			}
		})
	}
}
