package sched

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/channel"
	"salus/internal/core"
	"salus/internal/cryptoutil"
	"salus/internal/metrics"
	"salus/internal/shell"
)

// TestSubmitBatchMatchesReference: a batch rides to one device as a unit
// and every future resolves with the kernel's reference output, in input
// order.
func TestSubmitBatchMatchesReference(t *testing.T) {
	systems, key := newPool(t, 2, accel.Conv{})
	s := newScheduler(t, systems)

	ws := make([]accel.Workload, 17)
	for i := range ws {
		ws[i] = accel.GenConv(4+i%4, 4, 1, int64(500+i))
	}
	futs := submitWs(s, key, ws, std)
	if len(futs) != len(ws) {
		t.Fatalf("%d futures for %d workloads", len(futs), len(ws))
	}
	for i, f := range futs {
		out, err := waitOpen(key, f)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		want, _ := ws[i].Kernel.Compute(ws[i].Params, ws[i].Input)
		if !bytes.Equal(out, want) {
			t.Errorf("job %d output diverges", i)
		}
	}
}

// TestSubmitSealedBatchRoundTrip: the remote data-owner path, batched —
// inputs sealed under the pool's shared key, outputs opened under it.
func TestSubmitSealedBatchRoundTrip(t *testing.T) {
	systems, key := newPool(t, 2, accel.Conv{})
	s := newScheduler(t, systems)

	const n = 9
	jobs := make([]core.SealedJob, n)
	want := make([][]byte, n)
	for i := range jobs {
		w := accel.GenConv(4, 4, 1, int64(60+i))
		want[i], _ = w.Kernel.Compute(w.Params, w.Input)
		jobs[i] = sealJob(key, w)
	}
	futs := s.Submit("Conv", jobs, std)
	for i, f := range futs {
		sealedOut, err := f.Wait()
		if err != nil {
			t.Fatalf("sealed job %d: %v", i, err)
		}
		out, err := cryptoutil.Open(key, sealedOut, []byte("job-output"))
		if err != nil {
			t.Fatalf("sealed job %d output does not open: %v", i, err)
		}
		if !bytes.Equal(out, want[i]) {
			t.Errorf("sealed job %d output diverges", i)
		}
	}
}

// TestSubmitBatchRedispatchesOnDeviceFault: a batch landing on a broken
// device is retried intact on a healthy one; every job still succeeds.
func TestSubmitBatchRedispatchesOnDeviceFault(t *testing.T) {
	systems, key, inj := newFaultyPool(t, 2, 0)
	s := newScheduler(t, systems)
	inj.Break()

	ws := make([]accel.Workload, 8)
	for i := range ws {
		ws[i] = accel.GenConv(4, 4, 1, int64(i))
	}
	futs := submitWs(s, key, ws, std)
	for i, f := range futs {
		out, err := waitOpen(key, f)
		if err != nil {
			t.Fatalf("job %d did not survive the faulty device: %v", i, err)
		}
		want, _ := ws[i].Kernel.Compute(ws[i].Params, ws[i].Input)
		if !bytes.Equal(out, want) {
			t.Errorf("job %d output diverges after redispatch", i)
		}
	}
}

// TestRenderingBatchIsNotADeviceFault: Rendering writes a 64 KiB frame
// whatever its input size, so a batch whose device-memory slots were sized
// from the input alone reported every job as a device fault, charged a
// healthy board's breaker and re-ran each job on its own. Three Rendering
// jobs in one Submit to a one-board pool must complete as a batch: nothing
// failed, nothing retried, no fault streak.
func TestRenderingBatchIsNotADeviceFault(t *testing.T) {
	systems, key := newPool(t, 1, accel.Rendering{})
	s := newScheduler(t, systems)
	ws := make([]accel.Workload, 3)
	for i := range ws {
		ws[i], _ = accel.TestWorkload("Rendering", int64(70+i))
	}
	for i, f := range submitWs(s, key, ws, std) {
		out, err := waitOpen(key, f)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		want, _ := ws[i].Kernel.Compute(ws[i].Params, ws[i].Input)
		if !bytes.Equal(out, want) {
			t.Errorf("job %d output diverges", i)
		}
	}
	ds := findStats(t, s, systems[0].Device.DNA())
	if ds.Completed != 3 || ds.Failed != 0 || ds.Retried != 0 || ds.ConsecutiveFaults != 0 {
		t.Errorf("board after a 3-job Rendering batch: Completed %d, Failed %d, Retried %d, ConsecutiveFaults %d; want 3, 0, 0, 0",
			ds.Completed, ds.Failed, ds.Retried, ds.ConsecutiveFaults)
	}
}

// TestOneByOneAndAsOneSubmissionAgree is the differential test for the one
// submit path: the same 16 workloads sent one per Submit and as one Submit
// of 16, on two fresh identical pools, produce the goldens and advance the
// per-job counters identically, and leave every queue-depth gauge at rest.
func TestOneByOneAndAsOneSubmissionAgree(t *testing.T) {
	ws := make([]accel.Workload, 16)
	for i := range ws {
		ws[i] = accel.GenConv(4+i%4, 4, 1, int64(900+i))
	}
	type delta struct{ submitted, completed, jobSeconds uint64 }
	run := func(asOne bool) delta {
		systems, key := newPool(t, 2, accel.Conv{})
		s := newScheduler(t, systems)
		before := metrics.Default().Snapshot()
		var futs []*Future
		if asOne {
			futs = submitWs(s, key, ws, std)
		} else {
			for _, w := range ws {
				futs = append(futs, submitW(s, key, w))
			}
		}
		for i, f := range futs {
			out, err := waitOpen(key, f)
			if err != nil {
				t.Fatalf("asOne=%v job %d: %v", asOne, i, err)
			}
			want, _ := ws[i].Kernel.Compute(ws[i].Params, ws[i].Input)
			if !bytes.Equal(out, want) {
				t.Errorf("asOne=%v job %d output diverges from the golden", asOne, i)
			}
		}
		after := metrics.Default().Snapshot()
		if d := after.Gauges["salus_sched_queue_depth"] - before.Gauges["salus_sched_queue_depth"]; d != 0 {
			t.Errorf("asOne=%v: aggregate queue-depth gauge moved by %d", asOne, d)
		}
		for _, sys := range systems {
			name := fmt.Sprintf("salus_sched_rp_queue_depth_%s_rp0", sys.Device.DNA())
			if g, ok := after.Gauges[name]; !ok || g != 0 {
				t.Errorf("asOne=%v: %s = %d (present %v), want exactly 0", asOne, name, g, ok)
			}
		}
		return delta{
			after.Counters["salus_sched_submitted_total"] - before.Counters["salus_sched_submitted_total"],
			after.Counters["salus_sched_completed_total"] - before.Counters["salus_sched_completed_total"],
			after.Histograms["salus_sched_job_seconds"].Count - before.Histograms["salus_sched_job_seconds"].Count,
		}
	}
	single, batched := run(false), run(true)
	if want := (delta{16, 16, 16}); single != want || batched != want {
		t.Errorf("counter deltas: one-by-one %+v, as one %+v, want both %+v", single, batched, want)
	}
}

// TestBatchPerJobFaultsTripBreaker: a board whose DMA read-back is dead
// delivers every batch and then faults each of its jobs individually. The
// jobs must still succeed via single-job re-dispatch, and the entry must
// count as a device fault so the breaker quarantines the board instead of
// routing it batch after batch.
func TestBatchPerJobFaultsTripBreaker(t *testing.T) {
	systems, key, inj := newFaultyPool(t, 2, 0)
	s := New(Config{QuarantineAfter: 2, QuarantineBase: time.Minute})
	for _, sys := range systems {
		if err := s.Register(sys); err != nil {
			t.Fatal(err)
		}
	}
	defer s.Close()
	inj.BreakReads()

	for round := 0; round < 12; round++ {
		ws := make([]accel.Workload, 4)
		for i := range ws {
			ws[i] = accel.GenConv(4, 4, 1, int64(round*4+i))
		}
		for i, f := range submitWs(s, key, ws, std) {
			out, err := waitOpen(key, f)
			if err != nil {
				t.Fatalf("round %d job %d did not survive the sick board: %v", round, i, err)
			}
			want, _ := ws[i].Kernel.Compute(ws[i].Params, ws[i].Input)
			if !bytes.Equal(out, want) {
				t.Errorf("round %d job %d output diverges after redispatch", round, i)
			}
		}
	}
	sick := findStats(t, s, systems[0].Device.DNA())
	if !sick.Quarantined || sick.Retried == 0 {
		t.Fatalf("sick board after 12 batches: %+v; want it quarantined with re-dispatched jobs", sick)
	}
	if healthy := findStats(t, s, systems[1].Device.DNA()); healthy.Quarantined || healthy.Failed != 0 {
		t.Errorf("healthy board: %+v", healthy)
	}
}

// TestIntegrityFailureIsNotRedispatched: a job whose DMA input the shell
// flipped fails with core.ErrIntegrity, which is the shell's doing, not
// the board's: the scheduler neither re-dispatches it nor counts a device
// fault, and the job's siblings in the entry complete.
func TestIntegrityFailureIsNotRedispatched(t *testing.T) {
	sys, err := core.NewSystem(core.SystemConfig{
		Kernel:      accel.Conv{},
		Seed:        310,
		DNA:         "TAMPER-00",
		Timing:      core.FastTiming(),
		Interceptor: &shell.TamperDMA{Nth: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	key, err := BootSharedParallel([]*core.System{sys})
	if err != nil {
		t.Fatal(err)
	}
	s := newScheduler(t, []*core.System{sys})
	ws := convWorkloads(4)
	for i, f := range submitWs(s, key, ws, std) {
		out, err := waitOpen(key, f)
		if i == 1 {
			if !errors.Is(err, core.ErrIntegrity) || Retryable(err) {
				t.Errorf("tampered job: %v, want a non-retryable core.ErrIntegrity", err)
			}
			continue
		}
		want, _ := ws[i].Kernel.Compute(ws[i].Params, ws[i].Input)
		if err != nil || !bytes.Equal(out, want) {
			t.Errorf("job %d: %v", i, err)
		}
	}
	ds := findStats(t, s, sys.Device.DNA())
	if ds.Completed != 3 || ds.Failed != 1 || ds.Retried != 0 || ds.ConsecutiveFaults != 0 {
		t.Errorf("board after a tampered job: Completed %d, Failed %d, Retried %d, ConsecutiveFaults %d; want 3, 1, 0, 0",
			ds.Completed, ds.Failed, ds.Retried, ds.ConsecutiveFaults)
	}
}

// TestSubmitAfterCloseIsDeterministic is the regression test for the
// close/submit race: Submit on a closed scheduler must resolve every
// future with the ErrSchedulerClosed sentinel — deterministically, not a
// hang, not a panic, not a generic string.
func TestSubmitAfterCloseIsDeterministic(t *testing.T) {
	systems, key := newPool(t, 1, accel.Conv{})
	s := New(Config{})
	if err := s.Register(systems[0]); err != nil {
		t.Fatal(err)
	}
	s.Close()

	if _, err := submitW(s, key, accel.GenConv(4, 4, 1, 1)).Wait(); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("Submit after Close: got %v, want ErrSchedulerClosed", err)
	}
	for i, f := range submitWs(s, key, convWorkloads(3), std) {
		if _, err := f.Wait(); !errors.Is(err, ErrSchedulerClosed) {
			t.Fatalf("batched job %d after Close: got %v, want ErrSchedulerClosed", i, err)
		}
	}
	if err := s.Register(systems[0]); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("Register after Close: got %v, want ErrSchedulerClosed", err)
	}
	if err := s.RemoveRP(systems[0].Device.DNA(), AllRPs, 0); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("RemoveRP after Close: got %v, want ErrSchedulerClosed", err)
	}
}

func convWorkloads(n int) []accel.Workload {
	ws := make([]accel.Workload, n)
	for i := range ws {
		ws[i] = accel.GenConv(4, 4, 1, int64(i))
	}
	return ws
}

// TestCloseSubmitRace hammers Submit and SubmitBatch from many goroutines
// while Close runs concurrently. Run under -race, this pins the invariant
// the senders-WaitGroup discipline provides: no send on a closed channel,
// no deadlock, and every single future resolves — with a result or with
// ErrSchedulerClosed, never silence.
func TestCloseSubmitRace(t *testing.T) {
	for round := 0; round < 8; round++ {
		systems, key := newPool(t, 2, accel.Conv{})
		s := New(Config{})
		for _, sys := range systems {
			if err := s.Register(sys); err != nil {
				t.Fatal(err)
			}
		}

		var wg sync.WaitGroup
		futs := make(chan *Future, 256)
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 4; i++ {
					futs <- submitW(s, key, accel.GenConv(4, 4, 1, int64(g*10+i)))
					for _, f := range submitWs(s, key, convWorkloads(3), std) {
						futs <- f
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s.Close()
		}()
		close(start)
		wg.Wait()
		close(futs)

		// Jobs accepted before Close still run to completion (Close drains
		// the queues); jobs that lost the race resolve with the sentinel.
		for f := range futs {
			if _, err := f.Wait(); err != nil && !errors.Is(err, ErrSchedulerClosed) {
				t.Fatalf("round %d: future resolved with unexpected error: %v", round, err)
			}
		}
	}
}

// TestEveryEntryPutsOneBatchFramePerChunk: every entry runs as one batch,
// whatever its length: a lone job's register program and a 3-job vector's
// programs each ride one sealed batch frame (the chunk's), no register
// transaction goes out on its own, and every job resolves.
func TestEveryEntryPutsOneBatchFramePerChunk(t *testing.T) {
	rec := &shell.Recorder{}
	sys, err := core.NewSystem(core.SystemConfig{
		Kernel: accel.Conv{}, Seed: 330, DNA: "SHAPE-00", Timing: core.FastTiming(), Interceptor: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	key, err := BootSharedParallel([]*core.System{sys})
	if err != nil {
		t.Fatal(err)
	}
	s := newScheduler(t, []*core.System{sys})
	batchFrames := func() int {
		n := 0
		for _, f := range rec.Frames() {
			switch channel.MsgType(f) {
			case channel.MsgSecureRegBatch:
				n++
			case channel.MsgSecureReg, channel.MsgDirectReg:
				t.Fatalf("a register transaction went out on its own (frame type %#x)", channel.MsgType(f))
			}
		}
		return n
	}

	before := batchFrames()
	w := accel.GenConv(4, 4, 1, 1)
	out, err := waitFor(t, submitW(s, key, w))
	checkConv(t, key, w, out, err)
	if n := batchFrames() - before; n != 1 {
		t.Errorf("a lone job put %d batch frames on the bus, want 1", n)
	}

	before = batchFrames()
	ws := convWorkloads(3)
	for i, f := range submitWs(s, key, ws, std) {
		out, err := waitFor(t, f)
		checkConv(t, key, ws[i], out, err)
	}
	if n := batchFrames() - before; n != 1 {
		t.Errorf("a 3-job entry put %d batch frames on the bus, want 1", n)
	}
}
