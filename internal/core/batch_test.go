package core

import (
	"bytes"
	"strings"
	"testing"

	"salus/internal/accel"
	"salus/internal/channel"
	"salus/internal/cryptoutil"
)

// runBatch seals ws under the rig's data key, runs them through
// RunJobSealedBatch as one batch of the Conv kernel, and opens every
// output, so each result reads as the plaintext its kernel computed.
func (r sealedRig) runBatch(t testing.TB, ws []accel.Workload) ([]BatchResult, error) {
	t.Helper()
	jobs := make([]SealedJob, len(ws))
	for i, w := range ws {
		jobs[i] = SealedJob{Params: w.Params, Input: r.seal(t, w.Input)}
	}
	results, err := r.RunJobSealedBatch("Conv", jobs)
	for i, res := range results {
		if res.Err != nil {
			continue
		}
		out, openErr := cryptoutil.Open(r.key, res.Output, []byte("job-output"))
		if openErr != nil {
			t.Fatalf("job %d output does not open: %v", i, openErr)
		}
		results[i].Output = out
	}
	return results, err
}

func convBatch(n int) []accel.Workload {
	ws := make([]accel.Workload, n)
	for i := range ws {
		ws[i] = accel.GenConv(4+i%5, 4+i%3, 1+i%2, int64(100+i))
	}
	return ws
}

// TestRunJobBatchMatchesReference: every job in a batch produces exactly
// the output the kernel computes directly — across differently shaped
// workloads sharing the chunk's sealed frame and IV range.
func TestRunJobBatchMatchesReference(t *testing.T) {
	s := newSealedRig(t)
	ws := convBatch(12)
	results, err := s.runBatch(t, ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ws) {
		t.Fatalf("%d results for %d jobs", len(results), len(ws))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		want, err := ws[i].Kernel.Compute(ws[i].Params, ws[i].Input)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.Output, want) {
			t.Errorf("job %d output diverges from reference", i)
		}
	}
}

// TestRunJobBatchCrossesEpochBoundaries: with SessionRekeyEvery=3, a
// 10-job batch spans four epochs — each installed by a coalesced 4-write
// exchange at the front of its chunk's frame — and every job still
// decrypts correctly. This is the host/device IV-schedule lockstep test.
func TestRunJobBatchCrossesEpochBoundaries(t *testing.T) {
	s := newSealedRig(t, func(c *SystemConfig) { c.SessionRekeyEvery = 3 })
	ws := convBatch(10)
	results, err := s.runBatch(t, ws)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		want, _ := ws[i].Kernel.Compute(ws[i].Params, ws[i].Input)
		if !bytes.Equal(r.Output, want) {
			t.Errorf("job %d output diverges across the epoch boundary", i)
		}
	}
}

// TestRunJobBatchContinuesLiveSession: a batch after single jobs picks up
// the live epoch mid-schedule (sessJobs > 0) without desyncing, and a
// single job after the batch still runs — both directions of the
// single/batched interleaving.
func TestRunJobBatchContinuesLiveSession(t *testing.T) {
	s := newSealedRig(t)
	w, _ := accel.TestWorkload("Conv", 3)
	if _, err := s.RunJob(w); err != nil {
		t.Fatal(err)
	}
	results, err := s.runBatch(t, convBatch(5))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("batched job %d after a single job: %v", i, r.Err)
		}
	}
	out, err := s.RunJob(w)
	if err != nil {
		t.Fatalf("single job after a batch: %v", err)
	}
	want, _ := w.Kernel.Compute(w.Params, w.Input)
	if !bytes.Equal(out, want) {
		t.Error("single job after a batch diverges")
	}
}

// TestRunJobBatchRejectsOversizeJobIndividually: a job whose slot (input
// plus its kernel's output cap) exceeds the pipelined buffer half is
// refused with a pointer at the single-job path, while its batch-mates run
// to completion — and the same job does run as a single job, which gets the
// whole device memory window.
func TestRunJobBatchRejectsOversizeJobIndividually(t *testing.T) {
	s := newSealedRig(t)
	// 2,880,000 B in + 5,740,816 B out: over the 8 MiB half, inside 16 MiB.
	huge := accel.GenConv(1200, 1200, 1, 3)
	ws := []accel.Workload{accel.GenConv(4, 4, 1, 1), huge, accel.GenConv(4, 4, 1, 2)}
	results, err := s.runBatch(t, ws)
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "single job") {
		t.Fatalf("oversize job error = %v, want per-job rejection pointing at the single-job path", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("sibling job %d sunk by the oversize one: %v", i, results[i].Err)
		}
		want, _ := ws[i].Kernel.Compute(ws[i].Params, ws[i].Input)
		if !bytes.Equal(results[i].Output, want) {
			t.Errorf("sibling job %d output diverges", i)
		}
	}
	out, err := s.RunJob(huge)
	if err != nil {
		t.Fatalf("oversize batch job as a single job: %v", err)
	}
	want, _ := huge.Kernel.Compute(huge.Params, huge.Input)
	if !bytes.Equal(out, want) {
		t.Error("oversize job's single-job output diverges")
	}
}

// TestRunJobBatchRejectsWrongKernelIndividually mirrors the single-job
// path's kernel check, per job: a batch naming a kernel the deployed CL
// does not run is refused job by job, not as a fault covering the call, and
// the board's session still serves the next batch.
func TestRunJobBatchRejectsWrongKernelIndividually(t *testing.T) {
	s := newSealedRig(t)
	wrong, _ := accel.TestWorkload("Affine", 1)
	results, err := s.RunJobSealedBatch("Affine", []SealedJob{
		{Params: wrong.Params, Input: s.seal(t, wrong.Input)},
		{Params: wrong.Params, Input: s.seal(t, wrong.Input)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err == nil || !strings.Contains(r.Err.Error(), "deployed CL is Conv") {
			t.Fatalf("job %d of an Affine batch on a Conv board: err = %v, want a per-job kernel rejection", i, r.Err)
		}
	}
	if results, err = s.runBatch(t, convBatch(2)); err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("Conv job %d after a wrong-kernel batch: %v", i, r.Err)
		}
	}
}

// TestRunJobBatchRequiresBoot and the empty batch degenerate case.
func TestRunJobBatchRequiresBoot(t *testing.T) {
	s := newTestSystem(t)
	if _, err := s.RunJobSealedBatch("Conv", []SealedJob{{Input: make([]byte, 64)}}); err == nil {
		t.Fatal("batch ran on an unbooted system")
	}
	booted := newSealedRig(t)
	results, err := booted.RunJobSealedBatch("Conv", nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(results))
	}
}

// TestRunJobBatchLargeEnoughToPipeline forces multiple chunks through the
// memory-half bound (big inputs) so the overlapped DMA writer actually
// runs, and checks nothing corrupts across the double-buffered halves.
func TestRunJobBatchLargeEnoughToPipeline(t *testing.T) {
	opt, bus := recorded()
	s := newSealedRig(t, opt)
	// 1.5 MiB inputs and 1,040,400 B outputs: a slot is ~2.5 MiB, so three
	// jobs fill an 8 MiB half and the fourth opens a second chunk in the
	// other half, written while the first chunk runs.
	ws := make([]accel.Workload, 4)
	for i := range ws {
		ws[i] = accel.GenConv(512, 512, 3, int64(i))
	}
	results, err := s.runBatch(t, ws)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		want, _ := ws[i].Kernel.Compute(ws[i].Params, ws[i].Input)
		if !bytes.Equal(r.Output, want) {
			t.Errorf("job %d output corrupted across buffer halves", i)
		}
	}
	frames := 0
	for _, f := range bus.Frames() {
		if channel.MsgType(f) == channel.MsgSecureRegBatch {
			frames++
		}
	}
	if frames < 2 {
		t.Errorf("%d secure batch frames, want at least 2: the batch never pipelined", frames)
	}
}

// TestEveryKernelEveryEntryPoint runs each kernel's test workload through
// all three entry points — RunJob, RunJobSealed and a 3-job
// RunJobSealedBatch — and checks every output byte for byte against
// Compute. Every job's output must land in a slot of its own, whatever the
// kernel's output size (Rendering writes a 64 KiB frame for any input).
func TestEveryKernelEveryEntryPoint(t *testing.T) {
	for _, k := range accel.Kernels() {
		t.Run(k.Name(), func(t *testing.T) {
			r := newSealedRig(t, func(c *SystemConfig) { c.Kernel = k })
			ws := make([]accel.Workload, 3)
			sealed := make([]SealedJob, len(ws))
			want := make([][]byte, len(ws))
			for i := range ws {
				ws[i], _ = accel.TestWorkload(k.Name(), int64(20+i))
				sealed[i] = SealedJob{Params: ws[i].Params, Input: r.seal(t, ws[i].Input)}
				var err error
				if want[i], err = k.Compute(ws[i].Params, ws[i].Input); err != nil {
					t.Fatal(err)
				}
			}
			check := func(entry string, i int, got []byte, err error) {
				t.Helper()
				if err != nil {
					t.Errorf("%s job %d: %v", entry, i, err)
				} else if !bytes.Equal(got, want[i]) {
					t.Errorf("%s job %d: output diverges from Compute", entry, i)
				}
			}
			open := func(out []byte) []byte {
				pt, err := cryptoutil.Open(r.key, out, []byte("job-output"))
				if err != nil {
					t.Fatal(err)
				}
				return pt
			}

			out, err := r.RunJob(ws[0])
			check("RunJob", 0, out, err)
			sealedOut, err := r.RunJobSealed(k.Name(), ws[0].Params, sealed[0].Input)
			if err == nil {
				sealedOut = open(sealedOut)
			}
			check("RunJobSealed", 0, sealedOut, err)

			results, err := r.RunJobSealedBatch(k.Name(), sealed)
			if err != nil {
				t.Fatal(err)
			}
			for i, br := range results {
				if br.Err == nil {
					br.Output = open(br.Output)
				}
				check("RunJobSealedBatch", i, br.Output, br.Err)
			}
		})
	}
}

// TestRunSealedWantsOneResultPerJob: the caller's results slice must hold
// exactly one entry per job; any other length is refused before anything
// runs.
func TestRunSealedWantsOneResultPerJob(t *testing.T) {
	r := newSealedRig(t)
	w := accel.GenConv(8, 8, 1, 1)
	jobs := []SealedJob{{w.Params, r.seal(t, w.Input)}, {w.Params, r.seal(t, w.Input)}}
	for _, n := range []int{0, 1, 3} {
		if err := r.RunSealed("Conv", jobs, make([]BatchResult, n)); err == nil {
			t.Errorf("%d results for 2 jobs accepted", n)
		}
	}
}
