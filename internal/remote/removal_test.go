package remote

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/channel"
	"salus/internal/core"
	"salus/internal/cryptoutil"
	"salus/internal/federation"
	"salus/internal/fleet"
	"salus/internal/fpga"
	"salus/internal/manufacturer"
	"salus/internal/sched"
	"salus/internal/sgx"
	"salus/internal/shell"
)

// sickShell fails every job-path bus request once broken, so the board's
// breaker trips and, probe after failed probe, latches permanently.
type sickShell struct{ broken atomic.Bool }

func (s *sickShell) OnLoad(data []byte) []byte  { return data }
func (s *sickShell) OnResponse(p []byte) []byte { return p }
func (s *sickShell) OnRequest(req []byte) []byte {
	if !s.broken.Load() {
		return req
	}
	switch channel.MsgType(req) {
	case channel.MsgDirectReg, channel.MsgMemWrite, channel.MsgMemRead:
		return []byte{0xFF}
	}
	return req
}

// removalRig is a two-shard region behind one gateway: the root shard gw0
// holds boards RC-00 and RC-01 (RC-01 behind a shell that can be made sick),
// and the sibling shard gw1 holds two boards keyed by the time a row runs.
type removalRig struct {
	fed      *federation.Federation
	root     *fleet.Manager
	managers []*fleet.Manager // gw0, gw1
	sess     *Session
	sick     *sickShell
}

func newRemovalRig(t *testing.T) *removalRig {
	t.Helper()
	mfr, err := manufacturer.New()
	if err != nil {
		t.Fatal(err)
	}
	host, err := sgx.NewPlatform(mfr.Authority())
	if err != nil {
		t.Fatal(err)
	}
	r := &removalRig{fed: federation.New(federation.Config{SpillHighWater: 1e9}), sick: &sickShell{}}
	t.Cleanup(r.fed.Close)
	for i, prefix := range []string{"RC", "SIB"} {
		cfg := fleet.Config{Kernel: accel.Conv{}, DNAPrefix: prefix, Manufacturer: mfr, HostPlatform: host}
		if i == 0 {
			cfg.Scheduler = sched.Config{QuarantineAfter: 1, QuarantineBase: time.Millisecond, QuarantineMax: time.Millisecond, PermanentAfter: 2}
			cfg.Intercept = func(dna fpga.DNA) shell.Interceptor {
				if dna == "RC-01" {
					return r.sick
				}
				return nil
			}
		}
		mgr, err := fleet.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mgr.Close)
		r.managers = append(r.managers, mgr)
	}
	r.root = r.managers[0]
	owner, err := r.fed.AddRootShard("gw0", r.root, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.fed.AddSiblingShard("gw1", r.managers[1], "", 2); err != nil {
		t.Fatal(err)
	}
	srv, addr, err := Serve(r.fed, owner, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if r.sess, err = Dial(addr, expectationsOf(owner)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.sess.Close() })
	if err := r.sess.Attest(); err != nil {
		t.Fatal(err)
	}
	// Route sessions until one lands on gw1, which keys its boards.
	w := accel.GenConv(4, 4, 1, 1)
	for i := 0; len(r.managers[1].Members()) == 0; i++ {
		if i == 64 {
			t.Fatal("no session key routed to gw1")
		}
		if _, _, err := r.sess.RunJob(fmt.Sprintf("k-%d", i), "Conv", w.Params, w.Input); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// submit seals w under the owner's data key, which every board of either
// shard holds, and submits it straight to mgr's scheduler.
func (r *removalRig) submit(t *testing.T, mgr *fleet.Manager, w accel.Workload) *sched.Future {
	t.Helper()
	st, err := r.sess.attested()
	if err != nil {
		t.Fatal(err)
	}
	job := core.SealedJob{Params: w.Params, Input: cryptoutil.AppendSealWith(nil, st.aead, w.Input, jobInputAD)}
	return mgr.Scheduler().Submit(w.Kernel.Name(), []core.SealedJob{job}, sched.SubmitOptions{Class: sched.ClassStandard})[0]
}

// systems lists every partition either shard has adopted so far.
func (r *removalRig) systems() []*core.System {
	var out []*core.System
	for _, mgr := range r.managers {
		for _, dna := range mgr.Members() {
			out = append(out, mgr.Systems(dna)...)
		}
	}
	return out
}

// TestGatewayRemovalReclaims is the removal table: whichever verb, at
// whichever layer beneath a gateway, takes boards out of service, the
// systems it took out are Reclaimed() when the call returns, every
// partition still registered with a shard is not, and no job either shard
// accepted before the removal is lost.
func TestGatewayRemovalReclaims(t *testing.T) {
	const wait = 5 * time.Second
	for _, c := range []struct {
		name string
		gone int // partitions that leave
		verb func(*testing.T, *removalRig) error
	}{
		{"sched.RemoveRP", 1, func(_ *testing.T, r *removalRig) error {
			return r.root.Scheduler().RemoveRP("RC-01", sched.AllRPs, wait)
		}},
		{"fleet.Remove", 1, func(_ *testing.T, r *removalRig) error { return r.root.Remove("RC-01", wait) }},
		{"Replace", 1, func(_ *testing.T, r *removalRig) error {
			_, err := r.root.Replace("RC-01")
			return err
		}},
		{"Scale(-1)", 1, func(_ *testing.T, r *removalRig) error {
			_, removed, err := r.root.Scale(-1)
			if err == nil && len(removed) != 1 {
				err = fmt.Errorf("removed %v, want one board", removed)
			}
			return err
		}},
		{"AutoReplaceOnce", 1, func(t *testing.T, r *removalRig) error {
			r.sick.broken.Store(true)
			// Jobs fault on RC-01 and re-dispatch to RC-00 until its
			// breaker latches; each takes real time, so the probe windows
			// expire on their own.
			deadline := time.Now().Add(10 * time.Second)
			for !slices.ContainsFunc(r.root.Stats(), func(ds sched.DeviceStats) bool { return ds.Permanent }) {
				if time.Now().After(deadline) {
					t.Fatal("breaker never latched permanently")
				}
				w := accel.GenConv(4, 4, 1, 1)
				if _, err := r.submit(t, r.root, w).Wait(); err != nil {
					t.Fatalf("job lost while RC-01 degrades: %v", err)
				}
			}
			replaced, err := r.root.AutoReplaceOnce()
			if err == nil && replaced["RC-01"] == "" {
				err = fmt.Errorf("replaced %v, want RC-01", replaced)
			}
			return err
		}},
		{"Cluster.Scale(-1)", 1, func(_ *testing.T, r *removalRig) error {
			resp, err := r.sess.Scale(-1)
			if err == nil && len(resp.Removed) != 1 {
				err = fmt.Errorf("removed %v, want one board", resp.Removed)
			}
			return err
		}},
		{"Cluster.Remove", 1, func(_ *testing.T, r *removalRig) error {
			_, err := r.sess.Remove("RC-01", wait)
			return err
		}},
		{"federation.RemoveShard", 2, func(_ *testing.T, r *removalRig) error { return r.fed.RemoveShard("gw1") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRemovalRig(t)
			var accepted []*sched.Future
			for _, mgr := range r.managers {
				for i := 0; i < 4; i++ {
					w := accel.GenConv(4, 4, 1, int64(i))
					accepted = append(accepted, r.submit(t, mgr, w))
				}
			}
			systems := r.systems()

			if err := c.verb(t, r); err != nil {
				t.Fatal(err)
			}

			for i, f := range accepted {
				if _, err := f.Wait(); err != nil {
					t.Errorf("job %d accepted before the removal: %v", i, err)
				}
			}
			type rpKey struct {
				dna fpga.DNA
				rp  int
			}
			registered := map[rpKey]bool{}
			for _, sh := range r.fed.Stats().Shards {
				for _, ds := range r.fed.Manager(sh.ID).Stats() {
					registered[rpKey{ds.DNA, ds.RP}] = true
				}
			}
			for _, sys := range r.systems() {
				if !slices.Contains(systems, sys) {
					systems = append(systems, sys)
				}
			}
			gone := 0
			for _, sys := range systems {
				dna, rp := sys.Device.DNA(), sys.Partition()
				stays := registered[rpKey{dna, rp}]
				if !stays {
					gone++
				}
				if sys.Reclaimed() == stays {
					t.Errorf("%s/rp%d: registered %v, reclaimed %v", dna, rp, stays, sys.Reclaimed())
				}
			}
			if gone != c.gone {
				t.Errorf("%d partitions left service, want %d", gone, c.gone)
			}
		})
	}
}

// TestClusterDrainRemoveHonoursTimeout: Cluster.Remove with jobs in flight
// returns at the request's timeout and reports it, instead of draining a
// second time under the fleet's default; the board's leftover jobs still
// succeed, and the board is reclaimed once they have resolved.
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
	// Every job is queued before the removal lands, so the target board has
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
	_, err := sess.Remove(target, timeout)
	took := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), sched.ErrDrainTimeout.Error()) {
		t.Errorf("Remove under load: err = %v, want the drain timeout", err)
	}
	if took > timeout+250*time.Millisecond {
		t.Errorf("Remove with a %v timeout returned after %v", timeout, took)
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
