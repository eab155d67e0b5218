package remote

import (
	"errors"
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

// TestAdmissionP99Shed: when the live p99 exceeds the ceiling the
// gateway sheds standard and batch work but keeps admitting critical.
func TestAdmissionP99Shed(t *testing.T) {
	adm := NewAdmission(AdmissionConfig{MaxP99: 50 * time.Millisecond})
	p99 := 10 * time.Millisecond
	var mu sync.Mutex
	adm.p99 = func() time.Duration { mu.Lock(); defer mu.Unlock(); return p99 }
	clock := time.Unix(2000, 0)
	adm.now = func() time.Time { return clock }

	if err := adm.Admit("t", sched.ClassStandard, 1); err != nil {
		t.Fatalf("healthy p99: %v", err)
	}
	mu.Lock()
	p99 = 200 * time.Millisecond
	mu.Unlock()
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
