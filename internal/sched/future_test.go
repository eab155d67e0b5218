package sched

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/core"
	"salus/internal/cryptoutil"
)

// TestFutureWaitersRace drives many goroutines through Wait, Done and
// WaitTimeout on a lone entry's future and on a vector entry's block of
// futures, some before resolution and some after: every waiter sees the one
// result its future resolved with, and Done is closed once it has resolved.
// It is meant for -race.
func TestFutureWaitersRace(t *testing.T) {
	lone := newEntry(1, std)
	lone.add(core.SealedJob{})
	vec := newEntry(8, std)
	for i := 0; i < 8; i++ {
		vec.add(core.SealedJob{})
	}
	futs := append(append([]*Future(nil), lone.futs...), vec.futs...)
	want := func(i int) []byte { return []byte(fmt.Sprintf("out-%d", i)) }

	check := func(i int, out []byte, err error) {
		if err != nil || !bytes.Equal(out, want(i)) {
			t.Errorf("future %d: got %q, %v; want %q", i, out, err, want(i))
		}
	}
	var wg sync.WaitGroup
	wait := func(i int, f *Future) {
		wg.Add(3)
		go func() { defer wg.Done(); out, err := f.Wait(); check(i, out, err) }()
		go func() { defer wg.Done(); <-f.Done(); out, err := f.WaitTimeout(0); check(i, out, err) }()
		go func() {
			defer wg.Done()
			for {
				out, err := f.WaitTimeout(time.Millisecond)
				if !errors.Is(err, ErrWaitTimeout) {
					check(i, out, err)
					return
				}
			}
		}()
	}
	for i, f := range futs {
		for g := 0; g < 4; g++ {
			wait(i, f)
		}
	}
	var resolvers sync.WaitGroup
	for i, f := range futs {
		resolvers.Add(1)
		go func() { defer resolvers.Done(); f.resolve(want(i), nil) }()
	}
	resolvers.Wait()
	// A future resolved before anyone waited has no channel of its own.
	early := newEntry(1, std)
	early.add(core.SealedJob{})
	early.futs[0].resolve(want(len(futs)), nil)
	futs = append(futs, early.futs[0])
	for i, f := range futs {
		wait(i, f) // after resolution
		select {
		case <-f.Done():
		default:
			t.Errorf("future %d: Done not closed after resolution", i)
		}
	}
	wg.Wait()
}

// TestSubmitAllocCount pins what the scheduler adds to a warm sealed 2 KiB
// Conv job on one board: a lone Submit+Wait costs at most the board's own
// RunJobSealed (TestSealedJobAllocCount's job) plus 2 — the queue entry,
// which embeds the job's future, and the future's wake-up channel — and a
// 64-job Submit+Wait costs at most the board's RunJobSealedBatch of the same
// jobs plus a per-batch constant: the entry, its job and future vectors,
// one block of futures and the channels of the futures still pending when
// waited on. Before futures lived in their entry, a lone job cost 3 and a
// batch 2 per job more.
func TestSubmitAllocCount(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	systems, key := newPool(t, 1, accel.Conv{})
	s := newScheduler(t, systems)
	w := accel.GenConv(16, 16, 4, 1)
	sealed, err := cryptoutil.Seal(key, w.Input, []byte("job-input"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	lone := []Job{{Kernel: "Conv", Params: w.Params, Input: sealed, Sealed: true}}
	batch := make([]Job, n)
	direct := make([]core.SealedJob, n)
	for i := range batch {
		batch[i] = lone[0]
		direct[i] = core.SealedJob{Params: w.Params, Input: sealed}
	}
	must := func(_ []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	board := func() { must(systems[0].RunJobSealed("Conv", w.Params, sealed)) }
	submit := func() { must(s.Submit(lone, std)[0].Wait()) }
	boardBatch := func() {
		res, err := systems[0].RunJobSealedBatch("Conv", direct)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			must(r.Output, r.Err)
		}
	}
	submitBatch := func() {
		for _, f := range s.Submit(batch, std) {
			must(f.Wait())
		}
	}
	// Warm every path past a session rekey, then average over whole rekey
	// periods so each side pays the same share of them.
	warm := func(run func(), jobs int) float64 {
		for i := 0; i < core.DefaultSessionRekeyEvery; i++ {
			run()
		}
		return testing.AllocsPerRun(4*core.DefaultSessionRekeyEvery/jobs+4, run)
	}
	b, sub := warm(board, 1), warm(submit, 1)
	t.Logf("lone sealed job: RunJobSealed %.2f allocations, Submit+Wait %.2f", b, sub)
	if sub > b+2 {
		t.Errorf("lone sealed Submit+Wait: %.2f allocations, the board's job %.2f plus 2", sub, b)
	}
	bb, sb := warm(boardBatch, n), warm(submitBatch, n)
	const perBatch = 8
	t.Logf("%d sealed jobs: RunJobSealedBatch %.2f allocations, Submit+Wait %.2f", n, bb, sb)
	if sb > bb+perBatch {
		t.Errorf("%d-job sealed Submit+Wait: %.2f allocations, the board's batch %.2f plus %d", n, sb, bb, perBatch)
	}
}
