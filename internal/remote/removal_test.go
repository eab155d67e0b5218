package remote

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/core"
	"salus/internal/fpga"
	"salus/internal/sched"
)

// TestGatewayRemovalReclaims is the gateway's rows of the removal table
// (the scheduler's and the fleet's are in internal/fleet): whichever verb
// takes a board out of a fleet gateway, the board's systems are reclaimed
// when the call returns and every board that stays is not.
func TestGatewayRemovalReclaims(t *testing.T) {
	for _, c := range []struct {
		name string
		verb func(*ClusterSession, *fleetDeployment) error
	}{
		{"Cluster.Scale(-1)", func(sess *ClusterSession, _ *fleetDeployment) error {
			resp, err := sess.Scale(-1)
			if err == nil && len(resp.Removed) != 1 {
				t.Errorf("Scale(-1) removed %v, want one board", resp.Removed)
			}
			return err
		}},
		{"Cluster.Drain{Remove}", func(sess *ClusterSession, d *fleetDeployment) error {
			_, err := sess.Drain(d.systems[1].Device.DNA(), 5*time.Second, true)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := newFleetDeployment(t, 2, core.Timing{})
			sess := d.session(t)
			runFleetJob(t, sess, 1)
			if err := c.verb(sess, d); err != nil {
				t.Fatal(err)
			}
			if gone := checkReclaimedIffGone(t, d); gone != 1 {
				t.Errorf("%d boards left the fleet, want 1", gone)
			}
			runFleetJob(t, sess, 2)
		})
	}
}

// TestClusterDrainRemoveHonoursTimeout: Cluster.Drain{Remove} with jobs in
// flight returns at the request's timeout and reports it, instead of
// draining a second time under the fleet's default; the board's leftover
// jobs still succeed, and the board is reclaimed once they have resolved.
func TestClusterDrainRemoveHonoursTimeout(t *testing.T) {
	timing := core.FastTiming()
	timing.RealJobLatency = 300 * time.Millisecond
	d := newFleetDeployment(t, 2, timing)
	sess := d.session(t)

	const jobs = 8
	errs := make(chan error, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := accel.GenConv(4, 4, 1, int64(i))
			_, err := sess.RunJob(w.Kernel.Name(), w.Params, w.Input)
			errs <- err
		}()
	}
	// Every job is queued before the drain lands, so the target board has
	// work left to run past the deadline.
	deadline := time.Now().Add(10 * time.Second)
	for d.mgr.Scheduler().QueuedTotal() < jobs {
		if time.Now().After(deadline) {
			t.Fatal("the jobs never reached the scheduler")
		}
		runtime.Gosched()
	}

	const timeout = 50 * time.Millisecond
	target := d.systems[1].Device.DNA()
	start := time.Now()
	_, err := sess.Drain(target, timeout, true)
	took := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), sched.ErrDrainTimeout.Error()) {
		t.Errorf("Drain{Remove} under load: err = %v, want the drain timeout", err)
	}
	if took > timeout+250*time.Millisecond {
		t.Errorf("Drain{Remove} with a %v timeout returned after %v", timeout, took)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("job across the removal: %v", err)
		}
	}
	// Close waits for every scheduler worker, the removed board's too, so
	// the reclaim that follows its last job has run.
	d.mgr.Close()
	if gone := checkReclaimedIffGone(t, d); gone != 1 {
		t.Errorf("%d boards left the fleet, want 1", gone)
	}
}

// checkReclaimedIffGone asserts that each of the deployment's boards is
// reclaimed exactly when it is no longer registered with the scheduler, and
// returns how many left.
func checkReclaimedIffGone(t *testing.T, d *fleetDeployment) int {
	t.Helper()
	registered := map[fpga.DNA]bool{}
	for _, ds := range d.mgr.Stats() {
		registered[ds.DNA] = true
	}
	gone := 0
	for _, sys := range d.systems {
		stays := registered[sys.Device.DNA()]
		if !stays {
			gone++
		}
		if sys.Reclaimed() == stays {
			t.Errorf("%s: registered %v, reclaimed %v", sys.Device.DNA(), stays, sys.Reclaimed())
		}
	}
	return gone
}
