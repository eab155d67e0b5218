package fleet

import (
	"fmt"
	"sort"
	"time"

	"salus/internal/fpga"
	"salus/internal/metrics"
	"salus/internal/sched"
)

// Autoscale metrics: one counter per direction, plus the last pressure
// reading so dashboards can see how close the fleet runs to its thresholds.
var (
	mScaleUps   = metrics.Default().Counter("salus_fleet_autoscale_up_total")
	mScaleDowns = metrics.Default().Counter("salus_fleet_autoscale_down_total")
	mPressure   = metrics.Default().Gauge("salus_fleet_autoscale_pressure_x1000")
)

// AutoscaleConfig tunes autoscale-on-pressure. Pressure is the mean queue
// depth per member (sum of sched per-device Queued over membership size) —
// a direct backlog signal, unlike utilisation, which saturates at 1 and
// cannot distinguish "busy" from "drowning".
type AutoscaleConfig struct {
	// Interval between pressure samples; zero selects one second.
	Interval time.Duration
	// HighWater: sustained pressure at or above this adds a board.
	HighWater float64
	// LowWater: sustained pressure at or below this removes one. Must be
	// below HighWater; the gap is the hysteresis band that keeps a fleet
	// hovering near one threshold from flapping.
	LowWater float64
	// SustainUp / SustainDown are how many consecutive samples must agree
	// before acting; zero selects 3. Scale-up may justify a smaller value
	// than scale-down — adding capacity late costs latency, removing it
	// late costs only money.
	SustainUp, SustainDown int
}

// Pressure returns the mean queued entries per member — the backlog signal
// the autoscaler thresholds on and the federation's spill-over router
// consults per submission (QueuedTotal keeps it cheap enough for that).
// Every read feeds the pressure gauge.
func (m *Manager) Pressure() float64 {
	n := m.sch.DeviceCount()
	if n == 0 {
		return 0
	}
	p := float64(m.sch.QueuedTotal()) / float64(n)
	mPressure.Set(int64(p * 1000))
	return p
}

// Scale grows the fleet by delta boards (delta > 0) or shrinks it by
// -delta, and reports the boards that joined and the boards that left.
// Growth is Add; shrinking removes victims in the fleet's one victim order
// (see victims), each drain bounded by DefaultDrainTimeout. A board whose
// drain timed out has left and is reported as removed, with the error.
// Scale stops at the first failure: MaxDevices, MinDevices, a failed boot.
func (m *Manager) Scale(delta int) (added, removed []fpga.DNA, err error) {
	for i := 0; i < delta; i++ {
		dna, err := m.Add()
		if err != nil {
			return added, nil, fmt.Errorf("fleet: grew by %d of %d: %w", i, delta, err)
		}
		added = append(added, dna)
	}
	for _, dna := range victims(m.sch.Stats(), -delta) {
		err := m.Remove(dna, DefaultDrainTimeout)
		if left(err) {
			removed = append(removed, dna)
		}
		if err != nil {
			return nil, removed, fmt.Errorf("fleet: shrank by %d of %d: %w", len(removed), -delta, err)
		}
	}
	return added, removed, nil
}

// victims picks up to n boards to decommission, in the fleet's one victim
// order: permanently quarantined boards first, then quarantined ones, then
// the least loaded. Stats arrive one row per partition; a board ranks by
// its sickest partition, its load is the sum over its partitions, and each
// board is named once however many partitions it serves.
func victims(stats []sched.DeviceStats, n int) []fpga.DNA {
	type board struct {
		dna    fpga.DNA
		rank   int
		queued int64
	}
	rank := func(ds sched.DeviceStats) int {
		switch {
		case ds.Permanent:
			return 0
		case ds.Quarantined:
			return 1
		default:
			return 2
		}
	}
	byDNA := make(map[fpga.DNA]*board)
	var boards []*board
	for _, ds := range stats {
		b := byDNA[ds.DNA]
		if b == nil {
			b = &board{dna: ds.DNA, rank: rank(ds)}
			byDNA[ds.DNA] = b
			boards = append(boards, b)
		}
		b.rank = min(b.rank, rank(ds))
		b.queued += ds.Queued
	}
	sort.SliceStable(boards, func(i, j int) bool {
		if boards[i].rank != boards[j].rank {
			return boards[i].rank < boards[j].rank
		}
		return boards[i].queued < boards[j].queued
	})
	boards = boards[:min(max(n, 0), len(boards))]
	out := make([]fpga.DNA, len(boards))
	for i, b := range boards {
		out[i] = b.dna
	}
	return out
}

// autoscaleTick takes one pressure sample and acts when a streak completes.
// Returns +1 / -1 / 0 for grew / shrank / held (tests drive this directly;
// StartAutoscale drives it from a ticker).
func (m *Manager) autoscaleTick(cfg *AutoscaleConfig, upStreak, downStreak *int) int {
	p := m.Pressure()
	switch {
	case p >= cfg.HighWater:
		*upStreak++
		*downStreak = 0
	case p <= cfg.LowWater:
		*downStreak++
		*upStreak = 0
	default:
		*upStreak, *downStreak = 0, 0
	}
	if *upStreak >= cfg.SustainUp {
		*upStreak, *downStreak = 0, 0
		if _, _, err := m.Scale(1); err != nil {
			return 0 // at MaxDevices or boot failed; retry next streak
		}
		mScaleUps.Inc()
		return 1
	}
	if *downStreak >= cfg.SustainDown {
		*upStreak, *downStreak = 0, 0
		if _, removed, _ := m.Scale(-1); len(removed) == 0 {
			return 0 // at MinDevices or no member; retry next streak
		}
		mScaleDowns.Inc()
		return -1
	}
	return 0
}

// StartAutoscale samples queue pressure every cfg.Interval and grows or
// shrinks the fleet when a sustained threshold crossing completes, within
// the Min/MaxDevices bounds of the fleet config. Runs until Close.
func (m *Manager) StartAutoscale(cfg AutoscaleConfig) {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.SustainUp <= 0 {
		cfg.SustainUp = 3
	}
	if cfg.SustainDown <= 0 {
		cfg.SustainDown = 3
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(cfg.Interval)
		defer t.Stop()
		var upStreak, downStreak int
		for {
			select {
			case <-m.stopCh:
				return
			case <-t.C:
				m.autoscaleTick(&cfg, &upStreak, &downStreak)
			}
		}
	}()
}
