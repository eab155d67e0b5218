package remote

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/core"
	"salus/internal/sched"
)

// setRedialSchedule compresses (or stretches) the session redial policy
// for one test and restores it afterwards.
func setRedialSchedule(t *testing.T, attempts int, base, max time.Duration) {
	t.Helper()
	oldA, oldB, oldM := redialAttempts, redialBase, redialMax
	redialAttempts, redialBase, redialMax = attempts, base, max
	t.Cleanup(func() {
		redialAttempts, redialBase, redialMax = oldA, oldB, oldM
	})
}

// TestClusterRedialBackoffCapped: against a gateway that never comes
// back, the redial backoff must stop doubling at the cap — six attempts
// at base 20 ms spend ~180 ms capped vs ~620 ms uncapped.
func TestClusterRedialBackoffCapped(t *testing.T) {
	setRedialSchedule(t, 6, 20*time.Millisecond, 40*time.Millisecond)
	d := newClusterDeployment(t, 1, accel.Conv{})
	sess, err := DialCluster(d.addr, d.expectations())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}
	d.srv.Close() // the gateway dies and never recovers

	start := time.Now()
	_, err = sess.Stats()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Stats succeeded against a dead gateway")
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("unexpected verdict: %v", err)
	}
	// Capped schedule: 20+40+40+40+40 = 180 ms of backoff. Uncapped
	// doubling would need 620 ms before the dial overhead.
	if elapsed > 450*time.Millisecond {
		t.Fatalf("redial rounds took %v — backoff is not capped", elapsed)
	}
}

// TestClusterRedialCancelledByClose: a Close during redial backoff must
// interrupt the wait immediately — the old code slept the full window
// out on an uninterruptible time.Sleep.
func TestClusterRedialCancelledByClose(t *testing.T) {
	setRedialSchedule(t, 4, 2*time.Second, 2*time.Second)
	d := newClusterDeployment(t, 1, accel.Conv{})
	sess, err := DialCluster(d.addr, d.expectations())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}
	d.srv.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := sess.Stats()
		errc <- err
	}()
	// Let the call fail its first attempt and park in the 2 s backoff,
	// then close the session underneath it.
	//lint:allow test-sleep generous margin for the call to fail its first attempt and park in the 2 s redial backoff being cancelled
	time.Sleep(100 * time.Millisecond)
	closeAt := time.Now()
	sess.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("call succeeded against a dead gateway")
		}
		if !strings.Contains(err.Error(), "closed") {
			t.Fatalf("unexpected verdict after Close: %v", err)
		}
		if waited := time.Since(closeAt); waited > 500*time.Millisecond {
			t.Fatalf("call returned %v after Close — backoff was not cancellable", waited)
		}
	case <-time.After(1 * time.Second):
		t.Fatal("call still parked in redial backoff 1s after Close")
	}
}

// TestAdmissionTokenBucket: per-tenant rate limiting — one tenant's
// exhausted bucket must not touch another's, and buckets refill with
// time, capped at the burst.
func TestAdmissionTokenBucket(t *testing.T) {
	adm := NewAdmission(AdmissionConfig{TenantRate: 5, TenantBurst: 2})
	clock := time.Unix(1000, 0)
	adm.now = func() time.Time { return clock }

	for i := 0; i < 2; i++ {
		if err := adm.Admit("alice", sched.ClassStandard, 1); err != nil {
			t.Fatalf("alice admit %d: %v", i, err)
		}
	}
	if err := adm.Admit("alice", sched.ClassStandard, 1); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("alice over burst: got %v, want ErrRateLimited", err)
	}
	if err := adm.Admit("bob", sched.ClassStandard, 1); err != nil {
		t.Fatalf("bob must have his own bucket: %v", err)
	}

	// 10 s at 5/s would mint 50 tokens; the bucket caps at burst 2.
	clock = clock.Add(10 * time.Second)
	for i := 0; i < 2; i++ {
		if err := adm.Admit("alice", sched.ClassStandard, 1); err != nil {
			t.Fatalf("alice after refill %d: %v", i, err)
		}
	}
	if err := adm.Admit("alice", sched.ClassStandard, 1); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("alice burst must cap the refill: got %v, want ErrRateLimited", err)
	}

	// A batch costs its job count: 2 tokens cannot cover a 3-job batch.
	clock = clock.Add(10 * time.Second)
	if err := adm.Admit("alice", sched.ClassStandard, 3); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("3-job batch on 2 tokens: got %v, want ErrRateLimited", err)
	}
}

// neverEvicting is the token-bucket screen as it was before full buckets
// were swept: one bucket per tenant ever seen, for as long as the process
// lives.
type neverEvicting struct {
	rate, burst float64
	buckets     map[string]*tokenBucket
}

func (r *neverEvicting) admit(tenant string, cost int, now time.Time) bool {
	b, ok := r.buckets[tenant]
	if !ok {
		b = &tokenBucket{tokens: r.burst, last: now}
		r.buckets[tenant] = b
	}
	b.tokens = min(b.tokens+now.Sub(b.last).Seconds()*r.rate, r.burst)
	b.last = now
	if b.tokens < float64(cost) {
		return false
	}
	b.tokens -= float64(cost)
	return true
}

// TestAdmissionSweepKeepsVerdicts: dropping the buckets that have refilled
// changes no verdict. On a seeded random trace of tenants, costs and clock
// steps, the sweeping screen admits and refuses exactly what a screen that
// never evicts does, while holding fewer buckets than tenants it has seen.
func TestAdmissionSweepKeepsVerdicts(t *testing.T) {
	const rate, burst = 40, 6
	adm := NewAdmission(AdmissionConfig{TenantRate: rate, TenantBurst: burst})
	clock := time.Unix(3000, 0)
	adm.now = func() time.Time { return clock }
	ref := &neverEvicting{rate: rate, burst: burst, buckets: make(map[string]*tokenBucket)}
	rng := rand.New(rand.NewSource(39))
	limited := 0
	for i := 0; i < 50000; i++ {
		clock = clock.Add(time.Duration(rng.Intn(2000)) * time.Microsecond)
		tenant := fmt.Sprintf("t%d", rng.Intn(400))
		if rng.Intn(8) == 0 {
			tenant = fmt.Sprintf("once-%d", i) // a name sent once and never again
		}
		cost := 1 + rng.Intn(3)
		want := ref.admit(tenant, cost, clock)
		err := adm.Admit(tenant, sched.ClassStandard, cost)
		if got := err == nil; got != want || (err != nil && !errors.Is(err, ErrRateLimited)) {
			t.Fatalf("step %d (%s, cost %d): Admit = %v, never-evicting screen admits %v", i, tenant, cost, err, want)
		}
		if !want {
			limited++
		}
	}
	if limited == 0 {
		t.Fatal("the trace never hit a rate limit")
	}
	if n := len(adm.buckets); n > len(ref.buckets)/2 {
		t.Errorf("the screen holds %d buckets for %d tenants seen", n, len(ref.buckets))
	}
}

// TestAdmissionBucketsBounded: 100k distinct tenants sending one job each,
// a hundred per refill period (the time one job's token takes to come
// back), leave the screen holding buckets for about the tenants of the last
// few periods, not one for every name it was ever sent.
func TestAdmissionBucketsBounded(t *testing.T) {
	const rate, burst, perPeriod = 10, 10, 100
	adm := NewAdmission(AdmissionConfig{TenantRate: rate, TenantBurst: burst})
	clock := time.Unix(4000, 0)
	adm.now = func() time.Time { return clock }
	refill := time.Second / rate // one job's token comes back
	peak := 0
	for i := 0; i < 100000; i++ {
		clock = clock.Add(refill / perPeriod)
		if err := adm.Admit(fmt.Sprintf("tenant-%d", i), sched.ClassStandard, 1); err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
		peak = max(peak, len(adm.buckets))
	}
	if peak > 4*perPeriod {
		t.Errorf("%d buckets held at peak for %d tenants live per refill period", peak, perPeriod)
	}
}

// TestAdmissionP99Shed: when the recent p99 exceeds the ceiling the
// gateway sheds standard and batch work but keeps admitting critical.
func TestAdmissionP99Shed(t *testing.T) {
	adm := NewAdmission(AdmissionConfig{MaxP99: 50 * time.Millisecond})
	clock := time.Unix(2000, 0)
	adm.now = func() time.Time { return clock }
	adm.bind()

	adm.observe(10*time.Millisecond, 100)
	if err := adm.Admit("t", sched.ClassStandard, 1); err != nil {
		t.Fatalf("healthy p99: %v", err)
	}
	adm.observe(200*time.Millisecond, 100)
	clock = clock.Add(time.Second) // expire the p99 cache
	if err := adm.Admit("t", sched.ClassStandard, 1); !errors.Is(err, ErrGatewayOverloaded) {
		t.Fatalf("standard under overload: got %v, want ErrGatewayOverloaded", err)
	}
	if err := adm.Admit("t", sched.ClassBatch, 4); !errors.Is(err, ErrGatewayOverloaded) {
		t.Fatalf("batch under overload: got %v, want ErrGatewayOverloaded", err)
	}
	if err := adm.Admit("t", sched.ClassCritical, 1); err != nil {
		t.Fatalf("critical is exempt from the p99 shed: %v", err)
	}
}

// TestAdmissionP99ShedRecovers replays the overload that used to latch the
// shed: 1,000 jobs at 50 ms against a 10 ms ceiling, then 6,000 at 1 ms.
// The slow jobs shed work while they are in the window and stop shedding
// within one latencyWindow of their last sample; an hour later the screen
// admits too.
func TestAdmissionP99ShedRecovers(t *testing.T) {
	adm := NewAdmission(AdmissionConfig{MaxP99: 10 * time.Millisecond})
	clock := time.Unix(2000, 0)
	adm.now = func() time.Time { return clock }
	adm.bind()

	adm.observe(50*time.Millisecond, 1000)
	if err := adm.Admit("t", sched.ClassStandard, 1); !errors.Is(err, ErrGatewayOverloaded) {
		t.Fatalf("with slow jobs in the window: got %v, want ErrGatewayOverloaded", err)
	}
	clock = clock.Add(latencySlot)
	if err := adm.Admit("t", sched.ClassStandard, 1); !errors.Is(err, ErrGatewayOverloaded) {
		t.Fatalf("one slot on, the slow jobs are still in the window: got %v", err)
	}
	adm.observe(time.Millisecond, 6000)
	clock = clock.Add(latencyWindow - latencySlot)
	if err := adm.Admit("t", sched.ClassStandard, 1); err != nil {
		t.Fatalf("one window after the slow jobs: %v", err)
	}
	clock = clock.Add(time.Hour)
	if err := adm.Admit("t", sched.ClassStandard, 1); err != nil {
		t.Fatalf("an hour later: %v", err)
	}

	// An admission no gateway bound has no latency to read, so it never
	// sheds on p99.
	unbound := NewAdmission(AdmissionConfig{MaxP99: time.Nanosecond})
	unbound.observe(time.Second, 10)
	if err := unbound.Admit("t", sched.ClassBatch, 1); err != nil {
		t.Fatalf("unbound admission shed: %v", err)
	}
}

// TestAdmissionWindowUnderConcurrentJobs: handler goroutines record into
// the latency ring while Admit rotates and merges it on a moving clock.
func TestAdmissionWindowUnderConcurrentJobs(t *testing.T) {
	adm := NewAdmission(AdmissionConfig{MaxP99: time.Second})
	var mu sync.Mutex
	clock := time.Unix(2000, 0)
	adm.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		clock = clock.Add(100 * time.Millisecond)
		return clock
	}
	adm.bind()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := adm.Admit("t", sched.ClassStandard, 1); err != nil {
					t.Errorf("admit under fast jobs: %v", err)
					return
				}
				adm.observe(time.Millisecond, 2)
			}
		}()
	}
	wg.Wait()
}

// TestAdmissionSeesOnlyItsGateway: two gateways in one process, one serving
// slow jobs and one fast ones, each with its own p99 ceiling. Only the slow
// gateway sheds; the fast one never sees its neighbour's latency.
func TestAdmissionSeesOnlyItsGateway(t *testing.T) {
	clock := time.Unix(2000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	gateway := func(latency time.Duration) *ClusterSession {
		adm := NewAdmission(AdmissionConfig{MaxP99: 20 * time.Millisecond})
		adm.now = now
		timing := core.FastTiming()
		timing.RealJobLatency = latency
		d := newClusterDeploymentTiming(t, 1, accel.Conv{}, timing, WithAdmission(adm))
		sess, err := DialCluster(d.addr, d.expectations())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		if err := sess.Attest(); err != nil {
			t.Fatal(err)
		}
		return sess
	}
	slow, fast := gateway(40*time.Millisecond), gateway(0)
	w := accel.GenConv(4, 4, 1, 1)
	for i := 0; i < 3; i++ {
		for _, sess := range []*ClusterSession{slow, fast} {
			if _, err := sess.RunJob(w.Kernel.Name(), w.Params, w.Input); err != nil {
				t.Fatal(err)
			}
		}
	}
	mu.Lock()
	clock = clock.Add(2 * p99CacheTTL)
	mu.Unlock()
	if _, err := fast.RunJob(w.Kernel.Name(), w.Params, w.Input); err != nil {
		t.Errorf("the fast gateway shed on its neighbour's latency: %v", err)
	}
	if _, err := slow.RunJob(w.Kernel.Name(), w.Params, w.Input); err == nil || !strings.Contains(err.Error(), ErrGatewayOverloaded.Error()) {
		t.Errorf("the slow gateway: err = %v, want %v", err, ErrGatewayOverloaded)
	}
}

// TestGatewayEnforcesTenantRateLimit: end to end through the RPC plane —
// a session that exceeds its tenant budget gets an application-level
// rejection (never a retry), and an anonymous-class session still works.
func TestGatewayEnforcesTenantRateLimit(t *testing.T) {
	adm := NewAdmission(AdmissionConfig{TenantRate: 0.001, TenantBurst: 2})
	d := newClusterDeploymentTiming(t, 2, accel.Conv{}, core.Timing{}, WithAdmission(adm))
	sess, err := DialCluster(d.addr, d.expectations())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}
	sess.SetQoS(QoS{Tenant: "bulk", Class: sched.ClassStandard})

	w := accel.GenConv(4, 4, 1, 21)
	for i := 0; i < 2; i++ {
		if _, err := sess.RunJob("Conv", w.Params, w.Input); err != nil {
			t.Fatalf("job %d within budget: %v", i, err)
		}
	}
	if _, err := sess.RunJob("Conv", w.Params, w.Input); err == nil || !strings.Contains(err.Error(), "rate limit") {
		t.Fatalf("job over budget: got %v, want tenant rate limit rejection", err)
	}
	// Another tenant is unaffected.
	sess.SetQoS(QoS{Tenant: "other", Class: sched.ClassStandard})
	if _, err := sess.RunJob("Conv", w.Params, w.Input); err != nil {
		t.Fatalf("other tenant: %v", err)
	}
}

// TestGatewayDeadlinePropagates: a per-job deadline set on the session
// reaches the scheduler — a job queued behind a slow one expires and is
// shed with the scheduler's deadline verdict instead of running late.
func TestGatewayDeadlinePropagates(t *testing.T) {
	const service = 120 * time.Millisecond
	d := newClusterDeploymentTiming(t, 1, accel.Conv{}, core.Timing{RealJobLatency: service})
	sess, err := DialCluster(d.addr, d.expectations())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}

	w := accel.GenConv(4, 4, 1, 22)
	blockerDone := make(chan error, 1)
	go func() {
		_, err := sess.RunJob("Conv", w.Params, w.Input)
		blockerDone <- err
	}()
	//lint:allow test-sleep generous margin for the blocker to reach the device so the deadline job queues behind it
	time.Sleep(30 * time.Millisecond) // blocker is on the device

	sess.SetQoS(QoS{Class: sched.ClassStandard, Deadline: 40 * time.Millisecond})
	if _, err := sess.RunJob("Conv", w.Params, w.Input); err == nil || !strings.Contains(err.Error(), "deadline exceeded") {
		t.Fatalf("expired job: got %v, want deadline exceeded", err)
	}
	if err := <-blockerDone; err != nil {
		t.Fatalf("blocker: %v", err)
	}
}
