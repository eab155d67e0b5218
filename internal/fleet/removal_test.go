package fleet

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/core"
	"salus/internal/fpga"
	"salus/internal/sched"
	"salus/internal/shell"
)

// TestEveryRemovalReclaims walks every verb by which a partition or a board
// leaves the pool (the gateway's verbs are in internal/remote) and checks
// that leaving reclaims exactly what left: when the verb returns, every
// removed system is Reclaimed() and every partition still registered, a
// co-resident RP included, is not. The drain-timeout row returns at its
// deadline, its leftover jobs still succeed, and the reclaim follows them.
func TestEveryRemovalReclaims(t *testing.T) {
	const wait = 5 * time.Second
	slow := core.FastTiming()
	slow.RealJobLatency = 50 * time.Millisecond
	sick := &breaker{}
	var key []byte // the owner's key for the case running (cases run in turn)
	cases := []struct {
		name string
		cfg  Config
		gone int // partitions that leave
		verb func(t *testing.T, m *Manager)
	}{
		{"RemoveRP(rp)", Config{RPsPerDevice: 4}, 1, func(t *testing.T, m *Manager) {
			if err := m.Scheduler().RemoveRP("RC-01", 2, wait); err != nil {
				t.Fatal(err)
			}
		}},
		{"RemoveRP(AllRPs)", Config{RPsPerDevice: 4}, 4, func(t *testing.T, m *Manager) {
			if err := m.Scheduler().RemoveRP("RC-01", sched.AllRPs, wait); err != nil {
				t.Fatal(err)
			}
		}},
		{"Remove", Config{}, 1, func(t *testing.T, m *Manager) {
			if err := m.Remove("RC-01", wait); err != nil {
				t.Fatal(err)
			}
		}},
		{"Replace", Config{}, 1, func(t *testing.T, m *Manager) {
			if _, err := m.Replace("RC-01"); err != nil {
				t.Fatal(err)
			}
		}},
		{"AutoReplaceOnce", Config{
			Scheduler: sched.Config{QuarantineAfter: 1, QuarantineBase: time.Millisecond, QuarantineMax: time.Millisecond, PermanentAfter: 2},
			Intercept: func(dna fpga.DNA) shell.Interceptor {
				if dna == "RC-01" {
					return sick
				}
				return nil
			},
		}, 1, func(t *testing.T, m *Manager) {
			sick.Break()
			// Probe jobs fault on RC-01 and re-dispatch to RC-00 until its
			// breaker latches; each takes real time, so the probe windows
			// expire on their own.
			deadline := time.Now().Add(10 * time.Second)
			for !slices.ContainsFunc(m.Stats(), func(ds sched.DeviceStats) bool { return ds.Permanent }) {
				if time.Now().After(deadline) {
					t.Fatal("breaker never latched permanently")
				}
				runJob(t, m, key, 1)
			}
			if replaced, err := m.AutoReplaceOnce(); err != nil || replaced["RC-01"] == "" {
				t.Fatalf("auto replace: %v, %v", replaced, err)
			}
		}},
		{"autoscale step", Config{}, 1, func(t *testing.T, m *Manager) {
			var up, down int
			if got := m.autoscaleTick(&AutoscaleConfig{HighWater: 2, LowWater: 0.5, SustainUp: 1, SustainDown: 1}, &up, &down); got != -1 {
				t.Fatalf("idle tick = %+d, want -1", got)
			}
		}},
		{"Remove past its deadline", Config{Timing: slow}, 1, func(t *testing.T, m *Manager) {
			futs := make([]*sched.Future, 8)
			for i := range futs {
				futs[i] = submitW(m, key, accel.GenConv(4, 4, 1, int64(i)))
			}
			const timeout = 20 * time.Millisecond
			start := time.Now()
			err := m.Remove("RC-01", timeout)
			if took := time.Since(start); !errors.Is(err, sched.ErrDrainTimeout) || took > timeout+200*time.Millisecond {
				t.Fatalf("Remove under load: %v after %v, want ErrDrainTimeout at %v", err, took, timeout)
			}
			for i, f := range futs {
				if _, err := f.Wait(); err != nil {
					t.Errorf("leftover job %d: %v", i, err)
				}
			}
			// Close waits for every worker, the removed board's too: its
			// reclaim has run once it is back.
			m.Scheduler().Close()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.DNAPrefix = "RC"
			m := newManager(t, tc.cfg)
			key = boot(t, m, 2)
			var systems []*core.System
			for _, dna := range m.Members() {
				systems = append(systems, m.Systems(dna)...)
			}

			tc.verb(t, m)

			registered := map[fpga.DNA]map[int]bool{}
			for _, ds := range m.Stats() {
				if registered[ds.DNA] == nil {
					registered[ds.DNA] = map[int]bool{}
				}
				registered[ds.DNA][ds.RP] = true
			}
			for _, dna := range m.Members() {
				for _, sys := range m.Systems(dna) {
					if !slices.Contains(systems, sys) {
						systems = append(systems, sys)
					}
				}
			}
			gone := 0
			for _, sys := range systems {
				dna, rp := sys.Device.DNA(), sys.Partition()
				stays := registered[dna][rp]
				if !stays {
					gone++
				}
				if sys.Reclaimed() == stays {
					t.Errorf("%s/rp%d: registered %v, reclaimed %v", dna, rp, stays, sys.Reclaimed())
				}
			}
			if gone != tc.gone {
				t.Errorf("%d partitions left the pool, want %d", gone, tc.gone)
			}
		})
	}
}

// TestScaleVictimOrder pins the fleet's one victim order, which both the
// autoscale tick and the gateway's Cluster.Scale shrink by: permanently
// quarantined boards first, then quarantined ones, then the least loaded,
// each board named once.
func TestScaleVictimOrder(t *testing.T) {
	stats := []sched.DeviceStats{
		{DNA: "A", Queued: 0},
		{DNA: "B", Quarantined: true},
		{DNA: "C", Queued: 5},
		{DNA: "D", Quarantined: true, Permanent: true},
	}
	if got, want := victims(stats, 3), []fpga.DNA{"D", "B", "A"}; !slices.Equal(got, want) {
		t.Fatalf("victims = %v, want %v", got, want)
	}
	if n := len(victims(stats, 10)); n != 4 {
		t.Errorf("over-asked shrink returned %d victims, want 4", n)
	}
	if n := len(victims(stats, -1)); n != 0 {
		t.Errorf("a negative count returned %d victims, want none", n)
	}

	// A board's load is the sum over its partitions: A's RPs hold 0 and 10
	// jobs, B's 3 and 3. Ranking partitions picks A by its idle RP; ranking
	// boards picks B, the board with less work to drain.
	multiRP := []sched.DeviceStats{
		{DNA: "A", RP: 0, Queued: 0},
		{DNA: "A", RP: 1, Queued: 10},
		{DNA: "B", RP: 0, Queued: 3},
		{DNA: "B", RP: 1, Queued: 3},
	}
	if got := victims(multiRP, 1); !slices.Equal(got, []fpga.DNA{"B"}) {
		t.Errorf("2-RP victims = %v, want [B]", got)
	}
	// A board ranks by its sickest partition.
	multiRP[1].Quarantined = true
	if got := victims(multiRP, 1); !slices.Equal(got, []fpga.DNA{"A"}) {
		t.Errorf("victims with A's rp1 quarantined = %v, want [A]", got)
	}
}

// TestSiblingAddRacesRemoval grows the fleet through the sibling hand-off
// while other boards leave it. A departing board is no donor once its
// removal has begun, and a donor caught mid-removal either grants before
// its reclaim or refuses; nothing reads a key the reclaim is zeroizing.
func TestSiblingAddRacesRemoval(t *testing.T) {
	m := newManager(t, Config{DNAPrefix: "RACE"})
	key := boot(t, m, 3)
	leaving := []*core.System{m.System("RACE-00"), m.System("RACE-01")}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := m.Add(); err != nil && !strings.Contains(err.Error(), "donor system is not booted") {
				t.Errorf("sibling add: %v", err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for _, sys := range leaving {
			if err := m.Remove(sys.Device.DNA(), time.Second); err != nil {
				t.Errorf("remove: %v", err)
			}
		}
	}()
	wg.Wait()
	for _, sys := range leaving {
		if !sys.Reclaimed() {
			t.Errorf("%s left unreclaimed", sys.Device.DNA())
		}
	}
	for _, dna := range m.Members() {
		for _, sys := range m.Systems(dna) {
			if !sys.Booted() || sys.Reclaimed() {
				t.Errorf("member %s/rp%d: booted %v, reclaimed %v", dna, sys.Partition(), sys.Booted(), sys.Reclaimed())
			}
		}
	}
	runJob(t, m, key, 5)
}
