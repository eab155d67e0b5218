package remote

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/cryptoutil"
	"salus/internal/rpc"
	"salus/internal/sched"
)

// TestClusterSessionQoSSurvivesRedial is the regression guard for the QoS
// contract across transport failures: a session that set tenant, class,
// and deadline must attach the SAME fields to requests sent over a
// re-dialed connection after rpc.ErrBroken. The contract lives in session
// state, not connection state (qosFields renders it per request), and this
// test pins that down at the wire: the gateway is restarted as a stub that
// captures the raw JobRequest the redial delivers.
func TestClusterSessionQoSSurvivesRedial(t *testing.T) {
	d := newClusterDeployment(t, 2, accel.Conv{})
	sess, err := DialCluster(d.addr, d.expectations())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}
	want := QoS{Tenant: "tenant-qos", Class: sched.ClassCritical, Deadline: 1500 * time.Millisecond}
	sess.SetQoS(want)

	w := accel.GenConv(4, 4, 1, 5)
	ref, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := sess.RunJob("Conv", w.Params, w.Input); err != nil || !bytes.Equal(out, ref) {
		t.Fatalf("job before restart: %v", err)
	}

	// Restart the gateway as a capture stub on the same address: it records
	// the JobRequest exactly as the redialed connection delivers it and
	// answers with a validly sealed echo of the reference output.
	sess.mu.Lock()
	key := sess.dataKey
	sess.mu.Unlock()
	d.srv.Close()

	var (
		mu       sync.Mutex
		captured []JobRequest
	)
	stub := rpc.NewServer()
	stub.Handle("Cluster.RunJob", rpc.Typed(func(in JobRequest) (JobResponse, error) {
		mu.Lock()
		captured = append(captured, in)
		mu.Unlock()
		sealedOut, err := cryptoutil.Seal(key, ref, []byte("job-output"))
		if err != nil {
			return JobResponse{}, err
		}
		return JobResponse{SealedOutput: sealedOut}, nil
	}))
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err = stub.Listen(d.addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", d.addr, err)
		}
		//lint:allow test-sleep poll interval inside a deadline-bounded rebind loop; the sleep only paces rebind attempts
		time.Sleep(20 * time.Millisecond)
	}
	defer stub.Close()

	out, err := sess.RunJob("Conv", w.Params, w.Input)
	if err != nil {
		t.Fatalf("job after restart: %v", err)
	}
	if !bytes.Equal(out, ref) {
		t.Error("post-restart job output diverges")
	}
	if sess.Redials() < 1 {
		t.Fatalf("Redials() = %d, want >= 1: the stub never saw a redialed request", sess.Redials())
	}

	// One more input on the same capture: a positive deadline under 1 ms
	// must reach the wire as 1 ms, not truncate to 0 = "no deadline".
	sess.SetQoS(QoS{Tenant: want.Tenant, Class: want.Class, Deadline: 300 * time.Microsecond})
	if _, err := sess.RunJob("Conv", w.Params, w.Input); err != nil {
		t.Fatalf("sub-millisecond-deadline job: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(captured) < 2 {
		t.Fatalf("stub gateway captured %d requests, want >= 2", len(captured))
	}
	if got := captured[len(captured)-1].DeadlineMillis; got != 1 {
		t.Errorf("300µs deadline went on the wire as deadline_ms = %d, want 1", got)
	}
	got := captured[len(captured)-2]
	if got.Tenant != want.Tenant {
		t.Errorf("redialed request tenant = %q, want %q", got.Tenant, want.Tenant)
	}
	if got.Class != want.Class.String() {
		t.Errorf("redialed request class = %q, want %q", got.Class, want.Class.String())
	}
	if got.DeadlineMillis != want.Deadline.Milliseconds() {
		t.Errorf("redialed request deadline_ms = %d, want %d", got.DeadlineMillis, want.Deadline.Milliseconds())
	}
}
