// Multi-tenant spatial-sharing gate: the acceptance check for RP-granular
// scheduling (§4.7). On identical hardware — K boards with a fixed
// per-job device latency — carving each board into R reconfigurable
// partitions must serve a multi-tenant job mix at >= 2x the aggregate
// goodput of board-granular scheduling, because co-resident partitions
// compute concurrently while board-granular serving leaves R-1 partitions'
// worth of silicon idle.
//
// Run via `make bench-multitenant` (SALUS_BENCH_SMOKE=1) — wall-clock
// assertions do not belong in ordinary `go test ./...` runs.
package salus_test

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/core"
	"salus/internal/fleet"
	"salus/internal/sched"
)

// buildSpatialFleet boots K boards carved into R partitions each, with a
// 200µs device latency so capacity is device-bound — the regime where
// more schedulable partitions must mean more goodput. The test is the data
// owner: it provisions the boards (sched.BootSharedParallel) and gets back
// the key it seals under.
func buildSpatialFleet(t *testing.T, boards, rps int) (*fleet.Manager, []byte) {
	t.Helper()
	timing := core.FastTiming()
	timing.RealJobLatency = 200 * time.Microsecond
	m, err := fleet.New(fleet.Config{
		Kernel:       accel.Conv{},
		DNAPrefix:    fmt.Sprintf("MT%d", rps),
		Timing:       timing,
		RPsPerDevice: rps,
		Scheduler:    sched.Config{QueueDepth: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	systems, err := m.SpawnN(boards)
	if err != nil {
		t.Fatal(err)
	}
	key, err := sched.BootSharedParallel(systems)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range systems {
		if err := m.Adopt(sys); err != nil {
			t.Fatal(err)
		}
	}
	return m, key
}

// driveTenantMix submits n jobs spread across a population of tenants
// (admission bounded by inflight) and returns the window's goodput.
func driveTenantMix(t *testing.T, m *fleet.Manager, key []byte, n, tenants, inflight int) float64 {
	t.Helper()
	job := sealJob(t, key, accel.GenConv(4, 4, 1, 42))
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	var failed atomic.Uint64
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fut := submit(m.Scheduler(), job, sched.SubmitOptions{
				Tenant: fmt.Sprintf("tenant-%d", i%tenants),
				Class:  sched.ClassStandard,
			})
			if _, err := fut.Wait(); err != nil {
				failed.Add(1)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if got := failed.Load(); got > 0 {
		t.Fatalf("%d of %d tenant jobs failed", got, n)
	}
	return float64(n) / elapsed.Seconds()
}

func TestMultiTenantGate(t *testing.T) {
	if os.Getenv("SALUS_BENCH_SMOKE") == "" {
		t.Skip("set SALUS_BENCH_SMOKE=1 to run the multi-tenant gate (wall-clock assertions)")
	}
	const (
		boards    = 2
		rps       = 4
		tenants   = 16
		jobs      = 4000
		inflight  = 64
		minuplift = 2.0
	)

	// Baseline: the same boards, board-granular — one schedulable unit per
	// die, the pre-§4.7 shape.
	board, boardKey := buildSpatialFleet(t, boards, 1)
	baseRate := driveTenantMix(t, board, boardKey, jobs, tenants, inflight)

	// Spatial sharing: identical hardware, R partitions per die, each an
	// independent serving unit with its own sealed channel and key epoch.
	spatial, spatialKey := buildSpatialFleet(t, boards, rps)
	if got := len(spatial.Stats()); got != boards*rps {
		t.Fatalf("spatial fleet serves %d partitions, want %d", got, boards*rps)
	}
	spatialRate := driveTenantMix(t, spatial, spatialKey, jobs, tenants, inflight)

	t.Logf("multi-tenant goodput: board-granular %.0f jobs/s, %d RPs/board %.0f jobs/s (%.2fx)",
		baseRate, rps, spatialRate, spatialRate/baseRate)
	if spatialRate < minuplift*baseRate {
		t.Errorf("RP-granular goodput %.0f jobs/s is %.2fx board-granular %.0f jobs/s, want >= %.1fx",
			spatialRate, spatialRate/baseRate, baseRate, minuplift)
	}

	// Every partition took part: spatial sharing that funnels the mix into
	// one RP per board would pass a latency fluke, not the capacity claim.
	for _, ds := range spatial.Stats() {
		if ds.Completed == 0 {
			t.Errorf("partition %s/rp%d served no jobs during the window", ds.DNA, ds.RP)
		}
	}
}
