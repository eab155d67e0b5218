package fleet

import (
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/core"
	"salus/internal/sched"
)

// TestAutoscaleTickGrowsAndShrinksWithinBounds drives the pressure loop
// tick by tick: a sustained backlog grows the fleet to MaxDevices and no
// further; once the backlog drains, sustained idleness shrinks it back to
// MinDevices and no further.
func TestAutoscaleTickGrowsAndShrinksWithinBounds(t *testing.T) {
	timing := core.FastTiming()
	timing.RealJobLatency = 30 * time.Millisecond
	m := newManager(t, Config{
		Timing:     timing,
		MinDevices: 2,
		MaxDevices: 4,
		Scheduler:  sched.Config{QueueDepth: 64},
	})
	if err := m.BootFleet(2); err != nil {
		t.Fatal(err)
	}

	cfg := AutoscaleConfig{HighWater: 2, LowWater: 0.5, SustainUp: 2, SustainDown: 2}
	var up, down int

	// Backlog: 30 jobs on 2 devices at 30 ms each — pressure ~15.
	futs := make([]*sched.Future, 30)
	for i := range futs {
		futs[i] = submitW(m, m.Key(), accel.GenConv(4, 4, 1, int64(i)))
	}

	if got := m.autoscaleTick(&cfg, &up, &down); got != 0 {
		t.Fatalf("tick 1 acted (%+d) before the streak was sustained", got)
	}
	if got := m.autoscaleTick(&cfg, &up, &down); got != 1 {
		t.Fatalf("sustained pressure must grow the fleet, got %+d", got)
	}
	if n := len(m.Members()); n != 3 {
		t.Fatalf("members after scale-up = %d, want 3", n)
	}
	m.autoscaleTick(&cfg, &up, &down)
	if got := m.autoscaleTick(&cfg, &up, &down); got != 1 {
		t.Fatalf("second sustained streak must grow again, got %+d", got)
	}
	if n := len(m.Members()); n != 4 {
		t.Fatalf("members after second scale-up = %d, want 4", n)
	}
	// At MaxDevices the tick must hold, not error out of the loop.
	m.autoscaleTick(&cfg, &up, &down)
	if got := m.autoscaleTick(&cfg, &up, &down); got != 0 {
		t.Fatalf("tick acted (%+d) at MaxDevices", got)
	}
	if n := len(m.Members()); n != 4 {
		t.Fatalf("members exceeded MaxDevices: %d", n)
	}

	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("job %d lost across autoscaling: %v", i, err)
		}
	}

	// Idle fleet: pressure 0, sustained → shrink back to the floor, and
	// every board that leaves is reclaimed by the time the tick returns.
	var before []*core.System
	for _, dna := range m.Members() {
		before = append(before, m.Systems(dna)...)
	}
	m.autoscaleTick(&cfg, &up, &down)
	if got := m.autoscaleTick(&cfg, &up, &down); got != -1 {
		t.Fatalf("sustained idleness must shrink the fleet, got %+d", got)
	}
	gone := 0
	for _, sys := range before {
		member := m.System(sys.Device.DNA()) != nil
		if !member {
			gone++
		}
		if sys.Reclaimed() == member {
			t.Errorf("board %s: member %v, reclaimed %v", sys.Device.DNA(), member, sys.Reclaimed())
		}
	}
	if gone != 1 {
		t.Errorf("scale-down removed %d boards, want 1", gone)
	}
	m.autoscaleTick(&cfg, &up, &down)
	if got := m.autoscaleTick(&cfg, &up, &down); got != -1 {
		t.Fatalf("second idle streak must shrink again, got %+d", got)
	}
	if n := len(m.Members()); n != 2 {
		t.Fatalf("members after scale-down = %d, want 2", n)
	}
	m.autoscaleTick(&cfg, &up, &down)
	if got := m.autoscaleTick(&cfg, &up, &down); got != 0 {
		t.Fatalf("tick acted (%+d) at MinDevices", got)
	}
	if n := len(m.Members()); n != 2 {
		t.Fatalf("members dropped below MinDevices: %d", n)
	}
	runJob(t, m, 777) // the shrunk fleet still serves correctly
}

// TestAutoscaleStreakResetsOnMixedSignal: alternating pressure readings
// must never complete a streak — hysteresis means acting only on
// consecutive agreement.
func TestAutoscaleStreakResetsOnMixedSignal(t *testing.T) {
	timing := core.FastTiming()
	timing.RealJobLatency = 40 * time.Millisecond
	m := newManager(t, Config{
		Timing:    timing,
		Scheduler: sched.Config{QueueDepth: 64},
	})
	if err := m.BootFleet(1); err != nil {
		t.Fatal(err)
	}
	cfg := AutoscaleConfig{HighWater: 2, LowWater: 0.5, SustainUp: 2, SustainDown: 2}
	var up, down int

	for round := 0; round < 3; round++ {
		futs := make([]*sched.Future, 6)
		for i := range futs {
			futs[i] = submitW(m, m.Key(), accel.GenConv(4, 4, 1, int64(round*10+i)))
		}
		if got := m.autoscaleTick(&cfg, &up, &down); got != 0 {
			t.Fatalf("round %d: acted (%+d) on a single high reading", round, got)
		}
		for _, f := range futs {
			f.Wait() //nolint:errcheck // drain the backlog
		}
		if got := m.autoscaleTick(&cfg, &up, &down); got != 0 {
			t.Fatalf("round %d: acted (%+d) on a single low reading", round, got)
		}
	}
	if n := len(m.Members()); n != 1 {
		t.Fatalf("mixed signals changed membership: %d members", n)
	}
}

// TestStartAutoscaleBackgroundLoop: the ticker-driven loop reacts to a
// real sustained backlog, and Close stops it cleanly.
func TestStartAutoscaleBackgroundLoop(t *testing.T) {
	timing := core.FastTiming()
	timing.RealJobLatency = 20 * time.Millisecond
	m := newManager(t, Config{
		Timing:     timing,
		MaxDevices: 3,
		Scheduler:  sched.Config{QueueDepth: 64},
	})
	if err := m.BootFleet(2); err != nil {
		t.Fatal(err)
	}
	m.StartAutoscale(AutoscaleConfig{
		Interval:  10 * time.Millisecond,
		HighWater: 2, LowWater: 0.25,
		SustainUp: 2, SustainDown: 2,
	})

	futs := make([]*sched.Future, 80)
	for i := range futs {
		futs[i] = submitW(m, m.Key(), accel.GenConv(4, 4, 1, int64(i)))
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(m.Members()) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("autoscaler never grew the fleet under sustained backlog")
		}
		//lint:allow test-sleep poll interval inside a deadline-bounded autoscale loop; the sleep only paces membership checks
		time.Sleep(5 * time.Millisecond)
	}
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("job %d lost across background autoscaling: %v", i, err)
		}
	}
	m.Close() // must stop the loop without deadlock; Cleanup re-close is a no-op
}
