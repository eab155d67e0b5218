// Overload gate: the acceptance check for the admission-control and
// priority-QoS work. At 10x-capacity offered load the pool must keep its
// goodput (fast-rejecting the excess instead of queueing it to death) and
// the top priority band's tail latency must stay flat.
//
// Run via `make bench-overload` (SALUS_BENCH_SMOKE=1) — wall-clock
// assertions do not belong in ordinary `go test ./...` runs.
package salus_test

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/core"
	"salus/internal/fpga"
	"salus/internal/sched"
)

// overloadPool boots n devices with a 2 ms per-job device latency — the
// U200-scale idle-block the scheduler overlaps — behind one scheduler, and
// returns it with the pool's shared data key.
func overloadPool(t *testing.T, n int) (*sched.Scheduler, []byte) {
	t.Helper()
	timing := core.FastTiming()
	timing.RealJobLatency = 2 * time.Millisecond
	systems := make([]*core.System, n)
	for i := range systems {
		sys, err := core.NewSystem(core.SystemConfig{
			Kernel: accel.Conv{},
			Seed:   int64(950 + i),
			DNA:    fpga.DNA(fmt.Sprintf("OVLD-%02d", i)),
			Timing: timing,
		})
		if err != nil {
			t.Fatal(err)
		}
		systems[i] = sys
	}
	key, err := sched.BootSharedParallel(systems)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.New(sched.Config{QueueDepth: 16})
	t.Cleanup(s.Close)
	for _, sys := range systems {
		if err := s.Register(sys); err != nil {
			t.Fatal(err)
		}
	}
	return s, key
}

func p99(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := (len(samples)*99 + 99) / 100
	if idx > len(samples) {
		idx = len(samples)
	}
	return samples[idx-1]
}

func completedCount(s *sched.Scheduler) uint64 {
	var n uint64
	for _, ds := range s.Stats() {
		n += ds.Completed
	}
	return n
}

// TestOverloadGate is the 10x-overload acceptance test. Three phases:
//
//  1. Calibrate: closed-loop saturation measures the pool's capacity
//     (jobs/sec) and an uncontended critical-class p99.
//  2. Overload: an open-loop ClassBatch generator offers >= 10x capacity
//     for 1.5 s while a critical probe stream keeps measuring latency.
//  3. Gate: goodput during overload must stay >= 80% of capacity, and
//     the critical p99 must stay within 20% of uncontended plus one
//     device service time — the head-of-line residual that any
//     non-preemptive priority scheduler pays (a critical arrival can
//     find a batch job already occupying the fabric; it waits out at
//     most that one job, never the queue behind it).
func TestOverloadGate(t *testing.T) {
	if os.Getenv("SALUS_BENCH_SMOKE") == "" {
		t.Skip("set SALUS_BENCH_SMOKE=1 (make bench-overload) to run the overload gate")
	}
	const service = 2 * time.Millisecond
	s, key := overloadPool(t, 2)
	job := sealJob(t, key, accel.GenConv(8, 8, 1, 42))

	// Phase 1a: capacity, by closed-loop saturation — 8 workers keep both
	// device queues full for 700 ms.
	var stop atomic.Bool
	before := completedCount(s)
	calStart := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				submit(s, job, sched.SubmitOptions{Class: sched.ClassStandard}).Wait() //nolint:errcheck
			}
		}()
	}
	//lint:allow test-sleep fixed calibration window: capacity is defined as completions per wall-clock second, so the test must span real time
	time.Sleep(700 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	calElapsed := time.Since(calStart)
	capacity := float64(completedCount(s)-before) / calElapsed.Seconds()
	t.Logf("capacity: %.0f jobs/s across 2 devices (service %v)", capacity, service)
	if capacity < 100 {
		t.Fatalf("calibration failed: %.0f jobs/s is implausibly low", capacity)
	}

	// Phase 1b: uncontended critical p99 — sequential probes on an idle pool.
	var uncontended []time.Duration
	for i := 0; i < 150; i++ {
		start := time.Now()
		if _, err := submit(s, job, sched.SubmitOptions{Class: sched.ClassCritical}).Wait(); err != nil {
			t.Fatalf("uncontended critical job: %v", err)
		}
		uncontended = append(uncontended, time.Since(start))
	}
	uncontendedP99 := p99(uncontended)
	t.Logf("uncontended critical p99: %v", uncontendedP99)

	// Phase 2: overload — open-loop batch generators offer >= 10x capacity;
	// ClassBatch admission fast-rejects when the queues are full, so the
	// excess burns no queue space. A critical stream probes throughout.
	const window = 1500 * time.Millisecond
	var offered atomic.Uint64
	stop.Store(false)
	before = completedCount(s)
	ovStart := time.Now()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Bursts of 8 per ~1 ms tick per generator: ~30x capacity
			// offered without the generators spinning a core each (which
			// would contaminate the probe latencies with CPU contention).
			for !stop.Load() {
				for k := 0; k < 8; k++ {
					offered.Add(1)
					// ClassBatch either enqueues or fast-rejects; either
					// way the future resolves on its own and stats track
					// completions.
					_ = submit(s, job, sched.SubmitOptions{Class: sched.ClassBatch})
				}
				//lint:allow test-sleep paces the offered-load generator to a known rate; the gate asserts on ratios, not on this interval
				time.Sleep(time.Millisecond)
			}
		}()
	}
	var contended []time.Duration
	probeDeadline := ovStart.Add(window)
	for time.Now().Before(probeDeadline) {
		start := time.Now()
		if _, err := submit(s, job, sched.SubmitOptions{Class: sched.ClassCritical}).Wait(); err != nil {
			t.Fatalf("critical job under overload: %v", err)
		}
		contended = append(contended, time.Since(start))
		//lint:allow test-sleep paces critical-latency probes so they sample steady-state overload instead of racing each other
		time.Sleep(4 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	ovElapsed := time.Since(ovStart)
	goodput := float64(completedCount(s)-before) / ovElapsed.Seconds()
	offeredRate := float64(offered.Load()) / ovElapsed.Seconds()
	contendedP99 := p99(contended)
	t.Logf("overload: offered %.0f jobs/s (%.1fx capacity), goodput %.0f jobs/s (%.0f%% of capacity), critical p99 %v (%d probes)",
		offeredRate, offeredRate/capacity, goodput, 100*goodput/capacity, contendedP99, len(contended))

	// Phase 3: the gates.
	if offeredRate < 10*capacity {
		t.Fatalf("generator offered only %.1fx capacity; the gate needs >= 10x", offeredRate/capacity)
	}
	if goodput < 0.8*capacity {
		t.Fatalf("goodput collapsed under overload: %.0f jobs/s < 80%% of the %.0f jobs/s capacity", goodput, capacity)
	}
	bound := time.Duration(float64(uncontendedP99)*1.2) + service
	if contendedP99 > bound {
		t.Fatalf("critical p99 %v under overload exceeds %v (1.2x uncontended %v + one %v head-of-line residual)",
			contendedP99, bound, uncontendedP99, service)
	}
}

// TestOverloadGateSmokeReject sanity-checks (without wall-clock gates, so
// it runs in ordinary `go test`) the fast-reject contract the overload
// gate relies on: a full pool turns ClassBatch work away with
// ErrOverloaded instead of queueing it.
func TestOverloadGateSmokeReject(t *testing.T) {
	timing := core.FastTiming()
	timing.RealJobLatency = 50 * time.Millisecond
	sys, err := core.NewSystem(core.SystemConfig{
		Kernel: accel.Conv{},
		Seed:   970,
		DNA:    "OVLD-SMOKE",
		Timing: timing,
	})
	if err != nil {
		t.Fatal(err)
	}
	key, err := sched.BootSharedParallel([]*core.System{sys})
	if err != nil {
		t.Fatal(err)
	}
	s := sched.New(sched.Config{QueueDepth: 1})
	t.Cleanup(s.Close)
	if err := s.Register(sys); err != nil {
		t.Fatal(err)
	}
	job := sealJob(t, key, accel.GenConv(4, 4, 1, 43))
	f1 := submit(s, job, sched.SubmitOptions{Class: sched.ClassStandard})
	f2 := submit(s, job, sched.SubmitOptions{Class: sched.ClassStandard})
	rejected := false
	for i := 0; i < 50; i++ {
		f := submit(s, job, sched.SubmitOptions{Class: sched.ClassBatch})
		if _, err := f.Wait(); errors.Is(err, sched.ErrOverloaded) {
			rejected = true
			break
		}
	}
	if !rejected {
		t.Fatal("a saturated pool never fast-rejected ClassBatch work")
	}
	if _, err := f1.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Wait(); err != nil {
		t.Fatal(err)
	}
}
