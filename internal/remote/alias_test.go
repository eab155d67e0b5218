package remote

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"salus/internal/accel"
	"salus/internal/bufpool"
	"salus/internal/core"
	"salus/internal/cryptoutil"
	"salus/internal/sched"
)

// TestSealedInputsNeverOutliveTheirFrames is the gateway half of the wire's
// aliasing proof. The gateway hands sched and core sealed inputs that alias
// rpc frame buffers, which are recycled the moment a handler's response is
// written; a worker still reading one then would open another tenant's bytes.
// Under -race rpc overwrites every frame it recycles with 0xA5, so a stale
// alias cannot pass by luck: it fails GCM authentication or trips the
// detector. One attested session (a gateway takes one owner handshake) is
// driven from four goroutines mixing jobs that fit a pooled frame, jobs that
// do not, and 64-job batches; every output must equal its golden. A second
// phase closes the scheduler under the same load, the path that resolves
// futures in bulk: whatever still succeeds must still be golden, and
// everything else must be a clean refusal.
func TestSealedInputsNeverOutliveTheirFrames(t *testing.T) {
	d := newClusterDeployment(t, 2, accel.Conv{})
	sess, err := DialCluster(d.addr, d.expectations())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}

	type golden struct {
		w    accel.Workload
		want []byte
	}
	gen := func(h, w, c, n int) []golden {
		gs := make([]golden, n)
		for i := range gs {
			gs[i].w = accel.GenConv(h, w, c, int64(1000*h+i))
			if gs[i].want, err = gs[i].w.Kernel.Compute(gs[i].w.Params, gs[i].w.Input); err != nil {
				t.Fatal(err)
			}
		}
		return gs
	}
	small := gen(16, 16, 4, 8)    // 2 KiB: pooled frames both ways
	large := gen(150, 128, 8, 2)  // 300 KiB: past one frame chunk
	batched := gen(16, 16, 4, 64) // one RunBatch, pooled request frame
	batch := make([]BatchInput, len(batched))
	for i, g := range batched {
		batch[i] = BatchInput{Params: g.w.Params, Input: g.w.Input}
	}

	// step runs one unit of goroutine g's mix and reports the first wrong
	// output (fatal) or the first refusal (tolerated once the scheduler is
	// closing).
	step := func(g, i int) (refused, wrong error) {
		check := func(out []byte, err error, gd golden) {
			switch {
			case err != nil && refused == nil:
				refused = err
			case err == nil && !bytes.Equal(out, gd.want):
				wrong = fmt.Errorf("goroutine %d step %d: output differs from Kernel.Compute", g, i)
			}
		}
		switch (g + i) % 4 {
		case 0, 1:
			gd := small[(g*7+i)%len(small)]
			out, err := sess.RunJob("Conv", gd.w.Params, gd.w.Input)
			check(out, err, gd)
		case 2:
			gd := large[(g+i)%len(large)]
			out, err := sess.RunJob("Conv", gd.w.Params, gd.w.Input)
			check(out, err, gd)
		case 3:
			res, err := sess.RunBatch("Conv", batch)
			if err != nil {
				return err, nil
			}
			for j, r := range res {
				check(r.Output, r.Err, batched[j])
			}
		}
		return refused, wrong
	}

	const goroutines = 4
	run := func(steps int, closing bool) {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < steps; i++ {
					refused, wrong := step(g, i)
					if wrong != nil {
						t.Error(wrong)
						return
					}
					if refused == nil {
						continue
					}
					if !closing || !strings.Contains(refused.Error(), sched.ErrSchedulerClosed.Error()) {
						t.Errorf("goroutine %d step %d: %v", g, i, refused)
					}
					return
				}
			}(g)
		}
		if closing {
			// Let the load build, then close the scheduler under it.
			for d.sch.QueuedTotal() == 0 {
				if _, wrong := step(goroutines, 0); wrong != nil {
					t.Error(wrong)
					break
				}
			}
			d.sch.Close()
		}
		wg.Wait()
	}
	run(12, false)
	run(1<<20, true)
	if _, err := sess.RunJob("Conv", small[0].w.Params, small[0].w.Input); err == nil || errors.Is(err, errConnClosed) {
		t.Errorf("job after scheduler close: err = %v, want the gateway's refusal over a live connection", err)
	}
}

// TestRecycledOutputsUnderConcurrency is the output half of the gateway's
// aliasing proof. The gateway hands every served job's sealed output back
// to bufpool once its response is written, while other calls take the same
// buffers for theirs; under -race the pool overwrites every buffer it takes
// back with 0xA5, so an output released before or during its write would
// fail GCM authentication on the client. Eight callers on one Session mix
// 2 KiB and 1 MiB jobs with 64-job batches, and every output must equal
// Kernel.Compute. The release itself is checked on outputs taken from the
// scheduler directly, as the gateway takes them: a sub-slice of a batch
// output is refused by the pool, and under -race an alias kept past
// JobResponse.Release or BatchResponse.Release reads 0xA5.
func TestRecycledOutputsUnderConcurrency(t *testing.T) {
	d := newClusterDeployment(t, 2, accel.Conv{})
	sess, err := Dial(d.addr, d.expectations())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}
	type golden struct {
		w    accel.Workload
		want []byte
	}
	gen := func(h, w, c, n int) []golden {
		gs := make([]golden, n)
		for i := range gs {
			gs[i].w = accel.GenConv(h, w, c, int64(7000*h+i))
			if gs[i].want, err = gs[i].w.Kernel.Compute(gs[i].w.Params, gs[i].w.Input); err != nil {
				t.Fatal(err)
			}
		}
		return gs
	}
	small := gen(16, 16, 4, 64) // 2 KiB
	bulk := gen(256, 256, 8, 1) // 1 MiB
	batch := make([]BatchInput, len(small))
	for i, g := range small {
		batch[i] = BatchInput{Params: g.w.Params, Input: g.w.Input}
	}

	const callers, steps = 8, 4
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				var gs []golden
				var res []BatchResult
				var err error
				switch (c + i) % steps {
				case 0, 1:
					gs = small[(c*steps+i)%len(small):][:1]
				case 2:
					gs = bulk
				case 3:
					gs = small
					if res, _, err = sess.RunBatch("", "Conv", batch); err != nil {
						t.Errorf("caller %d step %d: %v", c, i, err)
						return
					}
				}
				if res == nil {
					out, _, err := sess.RunJob("", "Conv", gs[0].w.Params, gs[0].w.Input)
					res = []BatchResult{{Output: out, Err: err}}
				}
				for j, r := range res {
					if r.Err != nil || !bytes.Equal(r.Output, gs[j].want) {
						t.Errorf("caller %d step %d job %d: output differs from Kernel.Compute (%v)", c, i, j, r.Err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	st, err := sess.attested()
	if err != nil {
		t.Fatal(err)
	}
	aead := st.aead
	jobs := make([]core.SealedJob, 3)
	for i := range jobs {
		w := small[i].w
		jobs[i] = core.SealedJob{Params: w.Params, Input: cryptoutil.AppendSealWith(nil, aead, w.Input, jobInputAD)}
	}
	lone := d.sch.Submit("Conv", jobs[:1], sched.SubmitOptions{})
	batched := d.sch.Submit("Conv", jobs[1:], sched.SubmitOptions{})
	var job JobResponse
	var resp BatchResponse
	if job.SealedOutput, err = lone[0].Wait(); err != nil {
		t.Fatal(err)
	}
	aliases := [][]byte{job.SealedOutput[:cap(job.SealedOutput)]}
	for i, f := range batched {
		out, err := f.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if pt, err := cryptoutil.AppendOpenWith(nil, aead, out, jobOutputAD); err != nil || !bytes.Equal(pt, small[1+i].want) {
			t.Fatalf("batch output %d does not open to its golden (%v)", i, err)
		}
		resp.Results = append(resp.Results, BatchJobResult{SealedOutput: out})
		aliases = append(aliases, out[:cap(out)])
	}
	if bufpool.Put(resp.Results[0].SealedOutput[1:]) {
		t.Error("the pool took a sub-slice of a batch response's output")
	}
	job.Release()
	resp.Release()
	if !raceEnabled {
		return // the pool poisons what it takes back only under -race
	}
	for i, a := range aliases {
		if !bytes.Equal(a, bytes.Repeat([]byte{0xA5}, len(a))) {
			t.Errorf("output %d still holds its bytes after its response was released", i)
		}
	}
}
