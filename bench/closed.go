package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"salus/internal/remote"
)

// closedLoop is a closed-loop job workload: each client sends its next
// call only after the previous one returned and verified.
type closedLoop struct {
	name    string
	in      *jobInputs
	deploy  func() (*rig, error)
	clients int      // concurrent callers, one outstanding call each
	batch   int      // jobs per call; 0 means single RunJob
	window  int      // calls per throughput window
	warm    int      // untimed calls after each set-up
	keys    []string // fed-tenants: session keys in visiting order
}

// closedRounds is how many fresh set-ups one run makes.
const closedRounds = 8

func newClusterLoop(name string, in *jobInputs, batch, window, warm int) *closedLoop {
	return &closedLoop{name: name, in: in, deploy: deployCluster, clients: runtime.NumCPU(), batch: batch, window: window, warm: warm}
}

// newFedLoop keeps nproc x 32 calls outstanding on the one session a
// front tier can attest, the backlog that makes spill-over fire.
func newFedLoop(seed int64, in *jobInputs) *closedLoop {
	keys := fedSessionKeys(seed)
	return &closedLoop{
		name: wFed, in: in, clients: runtime.NumCPU() * 32, window: 500, warm: 512, keys: keys,
		deploy: func() (*rig, error) { return deployFederation(keys) },
	}
}

// fedSessionKeys derives the 16 x 4096 (tenant, key) identities and a
// seeded visiting order.
func fedSessionKeys(seed int64) []string {
	keys := make([]string, fedTenants*fedKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("t%02d/k%04d", i%fedTenants, i/fedTenants)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// call performs call number i and verifies every output against its
// golden; it returns how many jobs verified.
func (w *closedLoop) call(s session, i int, tr *tracer) (verified int, err error) {
	t0 := time.Now()
	var t1 time.Time
	defer func() {
		tr.span("session.call", "call", i, t0, t1)
		tr.span("verify", "call", i, t1, time.Now())
	}()
	if w.batch == 0 {
		j := w.in.at(i)
		out, err := s.runJob(i, j)
		t1 = time.Now()
		if err != nil {
			return 0, err
		}
		if !j.verify(out) {
			return 0, fmt.Errorf("call %d: output differs from Kernel.Compute", i)
		}
		return 1, nil
	}
	jobs := make([]remote.BatchInput, w.batch)
	for k := range jobs {
		j := w.in.at(i*w.batch + k)
		jobs[k] = remote.BatchInput{Params: j.params, Input: j.input}
	}
	res, err := s.runBatch(i, jobs)
	t1 = time.Now()
	if err != nil {
		return 0, err
	}
	for k, r := range res {
		if r.Err != nil {
			return verified, fmt.Errorf("call %d job %d: %w", i, k, r.Err)
		}
		if !w.in.at(i*w.batch + k).verify(r.Output) {
			return verified, fmt.Errorf("call %d job %d: output differs from Kernel.Compute", i, k)
		}
		verified++
	}
	return verified, nil
}

func (w *closedLoop) jobsPerCall() int {
	if w.batch == 0 {
		return 1
	}
	return w.batch
}

// phase is the outcome of one timed closed-loop phase.
type phase struct {
	calls     []time.Duration
	done      []time.Duration // completion offsets, ascending
	jobs      int
	attempted int
	failed    int
	firstErr  error
}

// drive runs clients closed loops against s until d has passed or limit
// calls were issued (limit 0: no limit), numbering calls from *next, and
// reports the phase; a non-nil tr records each call's spans.
func (w *closedLoop) drive(s session, clients int, d time.Duration, limit int64, next *atomic.Int64, tr *tracer) phase {
	var (
		mu sync.Mutex
		ph phase
		wg sync.WaitGroup
	)
	start := time.Now()
	first := next.Load()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var calls, done []time.Duration
			var jobs, failed int
			var firstErr error
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				if limit > 0 && int64(i) >= first+limit {
					break
				}
				t0 := time.Now()
				n, err := w.call(s, i, tr)
				t1 := time.Now()
				tr.span("call", "", i, t0, t1)
				calls = append(calls, t1.Sub(t0))
				done = append(done, t1.Sub(start))
				jobs += n
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
				}
			}
			mu.Lock()
			ph.calls = append(ph.calls, calls...)
			ph.done = append(ph.done, done...)
			ph.jobs += jobs
			ph.attempted += len(calls)
			ph.failed += failed
			if ph.firstErr == nil {
				ph.firstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(ph.done, func(i, j int) bool { return ph.done[i] < ph.done[j] })
	return ph
}

func (w *closedLoop) rounds(d time.Duration) ([]round, error) {
	// A round shorter than 200 ms measures mostly its own edges.
	n := min(closedRounds, max(1, int(d/(200*time.Millisecond))))
	per := d / time.Duration(n)
	out := make([]round, 0, n)
	var next atomic.Int64
	for i := 0; i < n; i++ {
		runtime.GC()
		baseline := runtime.NumGoroutine()
		t0 := time.Now()
		r, err := w.deploy()
		if err != nil {
			return nil, fmt.Errorf("%s: deploy: %w", w.name, err)
		}
		// Warm-up: enough untimed calls for lazy set-up (session key
		// exchange on every board, sibling hand-off, pools) to finish.
		if ph := w.drive(r.sess, w.clients, time.Minute, int64(w.warm), &next, nil); ph.firstErr != nil {
			r.close()
			return nil, fmt.Errorf("%s: warm-up: %w", w.name, ph.firstErr)
		}
		rd := round{setup: time.Since(t0)}
		reg := startRegistry()
		mem := startMem()
		ph := w.drive(r.sess, w.clients, per, 0, &next, nil)
		rd.mallocs, rd.bytes, _ = mem.stop()
		reg.stop()
		rd.calls, rd.jobs, rd.attempted, rd.failed = ph.calls, ph.jobs, ph.attempted, ph.failed
		rd.rate = windowRate(ph.done, w.window, w.jobsPerCall())
		if ph.firstErr != nil {
			rd.invalid = append(rd.invalid, ph.firstErr.Error())
		}
		rd.invalid = append(rd.invalid, reg.checkScheduler()...)
		r.close()
		if err := settle(baseline); err != nil {
			rd.invalid = append(rd.invalid, err.Error())
		}
		out = append(out, rd)
	}
	return out, nil
}
