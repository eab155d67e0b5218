package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"salus/internal/sched"
)

// openLoop is the open-overload workload: arrivals follow a schedule
// whatever the system does, and latency is timed from when a job was due.
// A ladder of standard-class rates finds the highest rate inside the
// latency limit; then a batch-class flood beyond capacity runs with a
// critical-class probe beside it.
type openLoop struct{ in *jobInputs }

const (
	openRounds    = 3
	openLimit     = 20 * time.Millisecond // standard-class p99 from due time
	openRefRate   = 800.0                 // the rung call_p50_us is read at
	floodRate     = 3000.0
	probeRate     = 100.0
	genLagLimitUs = 2000.0
)

var ladderRates = []float64{400, openRefRate, 1200}

// stream is one arrival schedule at a fixed rate and class.
type stream struct {
	rate  float64
	class sched.Class
}

// streamResult is what one stream's jobs experienced in one rung.
type streamResult struct {
	stream
	fromDue                []time.Duration // due -> verified output, successful jobs only
	doneAt                 []time.Duration // rung start -> verified output
	lag                    []time.Duration // due -> actually sent
	issued                 int
	verified               int
	shed                   int // batch-class jobs the scheduler fast-rejected: expected under overload
	failed                 int // anything else that is not a verified output
	firstErr               error
	backlogMid, backlogEnd int64
}

// runRung offers every stream for d and then waits for the stragglers.
func (o *openLoop) runRung(oc *ownerClient, streams []stream, d time.Duration, seq *atomic.Int64, tr *tracer) []streamResult {
	results := make([]streamResult, len(streams))
	var all sync.WaitGroup
	start := time.Now()
	for si := range streams {
		res := &results[si]
		res.stream = streams[si]
		all.Add(1)
		go func() {
			defer all.Done()
			var (
				mu       sync.Mutex
				inflight atomic.Int64
				jobs     sync.WaitGroup
			)
			gap := time.Duration(float64(time.Second) / res.rate)
			midTaken := false
			for n := 0; ; n++ {
				due := time.Duration(n) * gap
				if due >= d {
					break
				}
				// Plain sleeps: the sandbox wakes a sleeper ~0.5 ms late, but
				// spinning out the gap would take one of two processors from
				// the system under test. The lag is measured and is part of
				// every from-due latency.
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				if !midTaken && sent >= d/2 {
					res.backlogMid, midTaken = inflight.Load(), true
				}
				res.issued++
				res.lag = append(res.lag, sent-due)
				i := int(seq.Add(1) - 1)
				inflight.Add(1)
				jobs.Add(1)
				go func() {
					defer jobs.Done()
					j := o.in.at(i)
					out, err := oc.run(i, j, res.class)
					done := time.Since(start)
					inflight.Add(-1)
					tr.span("call."+res.class.String(), "", i, start.Add(due), start.Add(done))
					mu.Lock()
					defer mu.Unlock()
					switch {
					case err == nil && j.verify(out):
						res.verified++
						res.fromDue = append(res.fromDue, done-due)
						res.doneAt = append(res.doneAt, done)
					case err != nil && res.class == sched.ClassBatch && strings.Contains(err.Error(), sched.ErrOverloaded.Error()):
						res.shed++
					default:
						res.failed++
						if res.firstErr == nil {
							if err == nil {
								err = fmt.Errorf("job %d: output differs from Kernel.Compute", i)
							}
							res.firstErr = err
						}
					}
				}()
			}
			res.backlogEnd = inflight.Load()
			jobs.Wait()
		}()
	}
	all.Wait()
	return results
}

// openRound is one deployment's ladder and overload rungs.
type openRound struct {
	setup, attest time.Duration
	rung          time.Duration  // length of each rung
	ladder        []streamResult // one per ladderRates entry
	flood, probe  streamResult
	mallocs       uint64 // over the ladder rungs
	bytes         uint64
	ladderJobs    int
	reg           *registryDelta
	rpBalance     float64
	invalid       []string
}

// inLimit reports whether a ladder rung met the latency limit without
// failures and without a growing backlog.
func inLimit(r streamResult) bool {
	if r.failed > 0 || r.verified == 0 {
		return false
	}
	growing := r.backlogEnd > r.backlogMid+int64(max(8, r.issued/100))
	return !growing && percentile(durationsUs(r.fromDue), 99) <= usOf(openLimit)
}

func (o *openLoop) runRound(d time.Duration, seq *atomic.Int64, tr *tracer) (*openRound, error) {
	runtime.GC()
	baseline := runtime.NumGoroutine()
	t0 := time.Now()
	r, oc, err := deployFleetGateway()
	if err != nil {
		return nil, fmt.Errorf("%s: deploy: %w", wOpen, err)
	}
	defer r.close()
	// Warm-up: every partition exchanges its session key.
	warm := o.runRung(oc, []stream{{2000, sched.ClassStandard}}, 50*time.Millisecond, seq, nil)
	if warm[0].failed > 0 {
		return nil, fmt.Errorf("%s: warm-up: %w", wOpen, warm[0].firstErr)
	}
	// A rung shorter than this never fills the queues (smoke sizing).
	rung := max(d/time.Duration(len(ladderRates)+1), 150*time.Millisecond)
	or := &openRound{setup: time.Since(t0), attest: r.attest, rung: rung}
	reg := startRegistry()
	// Allocations are counted over the ladder only: there every job is
	// verified, so the count per job does not move with the shed share.
	mem := startMem()
	for _, rate := range ladderRates {
		res := o.runRung(oc, []stream{{rate, sched.ClassStandard}}, rung, seq, tr)
		or.ladder = append(or.ladder, res[0])
		or.ladderJobs += res[0].verified
	}
	or.mallocs, or.bytes, _ = mem.stop()
	over := o.runRung(oc, []stream{{floodRate, sched.ClassBatch}, {probeRate, sched.ClassCritical}}, rung, seq, tr)
	or.flood, or.probe = over[0], over[1]
	or.reg = reg.stop()

	for _, s := range or.streams() {
		if s.firstErr != nil {
			or.invalid = append(or.invalid, fmt.Sprintf("%s at %.0f/s: %v", s.class, s.rate, s.firstErr))
		}
	}
	or.invalid = append(or.invalid, or.reg.checkScheduler()...)
	if n := or.reg.counter("salus_remote_rate_limited_total"); n != 0 {
		or.invalid = append(or.invalid, fmt.Sprintf("admission rate-limited %v jobs though sized not to", n))
	}
	or.rpBalance = rpBalance(r.scheds[0])
	r.close()
	if err := settle(baseline); err != nil {
		or.invalid = append(or.invalid, err.Error())
	}
	return or, nil
}

// rpBalance is the least-loaded partition's completions over the busiest
// one's: 1 means the scheduler spread work evenly across RPs.
func rpBalance(s *sched.Scheduler) float64 {
	var lo, hi uint64
	for i, ds := range s.Stats() {
		if i == 0 || ds.Completed < lo {
			lo = ds.Completed
		}
		if ds.Completed > hi {
			hi = ds.Completed
		}
	}
	if hi == 0 {
		return 0
	}
	return float64(lo) / float64(hi)
}

func (or *openRound) streams() []streamResult {
	return append(append([]streamResult{}, or.ladder...), or.flood, or.probe)
}

// refRung is the ladder rung call_p50_us is read at.
func (or *openRound) refRung() streamResult {
	for _, r := range or.ladder {
		if r.rate == openRefRate {
			return r
		}
	}
	return or.ladder[0]
}

// goodput is the verified completions per second inside the overload
// rung proper: its ramp (the first tenth, while the queues fill) and the
// drain after the last arrival are left out.
func (or *openRound) goodput() float64 {
	from, to := or.rung/10, or.rung
	n := 0
	for _, s := range []streamResult{or.flood, or.probe} {
		for _, at := range s.doneAt {
			if at >= from && at < to {
				n++
			}
		}
	}
	return float64(n) / (to - from).Seconds()
}

func (or *openRound) lagP99Us() float64 {
	var lag []time.Duration
	for _, s := range or.streams() {
		lag = append(lag, s.lag...)
	}
	return percentile(durationsUs(lag), 99)
}

func (o *openLoop) rounds(d time.Duration) ([]round, error) {
	var seq atomic.Int64
	n := min(openRounds, max(1, int(d/time.Second)))
	out := make([]round, 0, n)
	for i := 0; i < n; i++ {
		or, err := o.runRound(d/time.Duration(n), &seq, nil)
		if err != nil {
			return nil, err
		}
		rd := round{setup: or.setup, calls: or.refRung().fromDue, rate: or.goodput(), jobs: or.ladderJobs, mallocs: or.mallocs, bytes: or.bytes, invalid: or.invalid}
		for _, s := range or.streams() {
			rd.attempted += s.issued
			rd.failed += s.failed
		}
		if lag := or.lagP99Us(); lag > genLagLimitUs {
			fmt.Printf("%-16s NOTE       round %d: generator ran late (gen_lag_p99 %.0f us > %.0f us); timings from due time include it\n", wOpen, i, lag, genLagLimitUs)
		}
		out = append(out, rd)
	}
	return out, nil
}

func (o *openLoop) traced(d time.Duration, tr *tracer) (map[string]float64, int, int, error) {
	vals := map[string]float64{}
	host := startHost()
	var seq atomic.Int64
	// An untraced round, then a traced one: their 1000/s p50s give the
	// tracing overhead, the traced round everything else.
	plain, err := o.runRound(d/2, &seq, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	or, err := o.runRound(d/2, &seq, tr)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(or.invalid) > 0 {
		return nil, 0, 0, fmt.Errorf("%s: %s", wOpen, strings.Join(or.invalid, "; "))
	}
	ref := durationsUs(or.refRung().fromDue)
	plainP50 := percentile(durationsUs(plain.refRung().fromDue), 50)
	vals["trace.overhead_share"] = (percentile(ref, 50) - plainP50) / plainP50
	vals["client.call_p99_us"] = percentile(ref, 99)
	vals["client.call_max_us"] = percentile(ref, 100)
	vals["client.gen_lag_p99_us"] = or.lagP99Us()
	var attempted, failed, shed, verified int
	for _, s := range or.streams() {
		attempted += s.issued
		failed += s.failed
		shed += s.shed
		verified += s.verified
	}
	vals["client.fail_share"] = float64(failed+shed) / float64(attempted)
	vals["remote.attest_ms"] = msOf(or.attest)
	var maxRate float64
	for _, r := range or.ladder {
		if inLimit(r) && r.rate > maxRate {
			maxRate = r.rate
		}
	}
	top := or.ladder[len(or.ladder)-1]
	vals["sched.max_rate_in_limit"] = maxRate
	vals["sched.standard_p99_us"] = percentile(durationsUs(top.fromDue), 99)
	vals["sched.critical_p50_us"] = percentile(durationsUs(or.probe.fromDue), 50)
	vals["sched.overload_goodput_per_s"] = or.goodput()
	vals["sched.rp_balance"] = or.rpBalance
	registryLayers(or.reg, verified, vals)
	host.finish(verified, vals)
	return vals, attempted, failed, nil
}
