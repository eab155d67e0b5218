package remote

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/client"
	"salus/internal/core"
	"salus/internal/cryptoutil"
	"salus/internal/rpc"
)

func TestClusterStatsNotBlockedByInFlightJob(t *testing.T) {
	// Acceptance for the concurrent serving path: a Cluster.Stats call must
	// complete while a Cluster.RunJob with real device latency is still in
	// flight on the same connection. The session is dialed as a stripe of
	// one, so both calls ride one rpc connection: the job's caller holds
	// the client's read role and must route the Stats reply to its caller.
	// Under the old serial transport the Stats reply would queue behind the
	// job's.
	const jobLatency = 300 * time.Millisecond
	d := newClusterDeploymentTiming(t, 2, accel.Conv{}, core.Timing{RealJobLatency: jobLatency})
	prev := runtime.GOMAXPROCS(1)
	sess, err := DialCluster(d.addr, d.expectations())
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if n := len(sess.conn.slots); n != 1 {
		t.Fatalf("stripe of %d connections, want 1", n)
	}
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}

	w := accel.GenConv(4, 4, 1, 7)
	want, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	jobOut := make(chan []byte, 1)
	jobErr := make(chan error, 1)
	jobDone := make(chan time.Time, 1)
	go func() {
		out, err := sess.RunJob("Conv", w.Params, w.Input)
		jobDone <- time.Now()
		jobOut <- out
		jobErr <- err
	}()
	//lint:allow test-sleep generous margin for the job request to reach the gateway and occupy the device
	time.Sleep(40 * time.Millisecond) // the job request is on the wire, device busy

	start := time.Now()
	stats, err := sess.Stats()
	statsDone := time.Now()
	if err != nil {
		t.Fatalf("Stats while job in flight: %v", err)
	}
	if len(stats) != 2 {
		t.Errorf("Stats saw %d devices, want 2", len(stats))
	}
	if d := statsDone.Sub(start); d > jobLatency/2 {
		t.Errorf("Stats took %v behind a %v job: head-of-line blocked", d, jobLatency)
	}
	jobAt := <-jobDone
	if !statsDone.Before(jobAt) {
		t.Error("Stats finished after the in-flight job: no overlap on the shared connection")
	}
	if err := <-jobErr; err != nil {
		t.Fatalf("in-flight job: %v", err)
	}
	if out := <-jobOut; !bytes.Equal(out, want) {
		t.Error("job output diverges from reference")
	}
}

func TestClusterSessionSurvivesGatewayRestart(t *testing.T) {
	// The gateway restarts on the same address (rolling deploy); the
	// session's connection is poisoned with rpc.ErrBroken but the next call
	// re-dials and succeeds. The data key survives the reconnect — no
	// re-attestation is needed, because nothing secret lives in the
	// connection.
	d := newClusterDeployment(t, 2, accel.Conv{})
	sess, err := DialCluster(d.addr, d.expectations())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}
	w := accel.GenConv(4, 4, 1, 21)
	want, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := sess.RunJob("Conv", w.Params, w.Input); err != nil || !bytes.Equal(out, want) {
		t.Fatalf("job before restart: %v", err)
	}

	restartGateway(t, d)

	out, err := sess.RunJob("Conv", w.Params, w.Input)
	if err != nil {
		t.Fatalf("job after restart: %v", err)
	}
	if !bytes.Equal(out, want) {
		t.Error("post-restart job output diverges from reference")
	}
	if sess.Redials() < 1 {
		t.Errorf("Redials() = %d, want >= 1 after a gateway restart", sess.Redials())
	}
}

// restartGateway closes d's gateway and serves the same pool again on the
// same address (a rolling deploy), until the test ends.
func restartGateway(t *testing.T, d *clusterDeployment) {
	t.Helper()
	d.srv.Close()
	// Rebind the same address; retry briefly while the OS releases the port.
	deadline := time.Now().Add(2 * time.Second)
	for {
		srv, _, err := ServeCluster(d.systems, d.sch, d.addr)
		if err == nil {
			t.Cleanup(func() { srv.Close() })
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", d.addr, err)
		}
		//lint:allow test-sleep poll interval inside a deadline-bounded rebind loop; the sleep only paces redial attempts
		time.Sleep(20 * time.Millisecond)
	}
}

func TestClusterBootProvisionReplaySafe(t *testing.T) {
	// Drive the owner protocol by hand over a raw RPC client, replaying each
	// handshake step the way a client whose connection died mid-flight
	// would. Replays with identical requests succeed (and never
	// double-register a device); conflicting replays are refused.
	d := newClusterDeployment(t, 3, accel.Conv{})
	exps := d.expectations()
	c, err := rpc.Dial(d.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	nonce := client.New(exps[0]).NewNonce()
	var boot1, boot2 ClusterBootResponse
	if err := c.Call("Cluster.Boot", ClusterBootRequest{Nonce: nonce}, &boot1); err != nil {
		t.Fatal(err)
	}
	// Replay under the same nonce: the cached quotes come back verbatim.
	if err := c.Call("Cluster.Boot", ClusterBootRequest{Nonce: nonce}, &boot2); err != nil {
		t.Fatalf("replayed boot: %v", err)
	}
	j1, _ := json.Marshal(boot1)
	j2, _ := json.Marshal(boot2)
	if !bytes.Equal(j1, j2) {
		t.Error("replayed boot returned different quotes")
	}
	// A different nonce is a conflicting replay, not a second handshake.
	other := client.New(exps[0]).NewNonce()
	err = c.Call("Cluster.Boot", ClusterBootRequest{Nonce: other}, nil)
	if err == nil || !strings.Contains(err.Error(), "different nonce") {
		t.Errorf("conflicting boot nonce: err = %v, want different-nonce rejection", err)
	}
	// Prefix-probe regression for the constant-time compare (salus-vet
	// ct-compare seed finding): a nonce sharing a long prefix with the
	// real one, a truncation, and an extension must all be rejected —
	// cryptoutil.ConstantTimeEqual is length-strict and the gateway must
	// not treat near-matches differently from full mismatches.
	probe := append([]byte(nil), nonce...)
	probe[len(probe)-1] ^= 0x01
	for name, n := range map[string][]byte{
		"prefix-probe": probe,
		"truncated":    nonce[:len(nonce)-1],
		"extended":     append(append([]byte(nil), nonce...), 0x00),
	} {
		if err := c.Call("Cluster.Boot", ClusterBootRequest{Nonce: n}, nil); err == nil || !strings.Contains(err.Error(), "different nonce") {
			t.Errorf("%s nonce: err = %v, want different-nonce rejection", name, err)
		}
	}

	// Verify every quote and seal one shared key per device, as Attest does.
	key := cryptoutil.RandomKey(16)
	req := ClusterProvisionRequest{Provisions: make([]ProvisionRequest, len(exps))}
	for i, q := range boot1.Quotes {
		pub, err := client.New(exps[i]).VerifyRAResponse(nonce, q)
		if err != nil {
			t.Fatalf("device %d quote: %v", i, err)
		}
		senderPub, sealed, err := client.ProvisionDataKey(pub, key)
		if err != nil {
			t.Fatal(err)
		}
		req.Provisions[i] = ProvisionRequest{SenderPub: senderPub, Sealed: sealed}
	}
	if err := c.Call("Cluster.Provision", req, nil); err != nil {
		t.Fatal(err)
	}
	// Byte-identical replay succeeds without re-provisioning anything.
	if err := c.Call("Cluster.Provision", req, nil); err != nil {
		t.Fatalf("replayed provision: %v", err)
	}
	if got := len(d.sch.Stats()); got != len(exps) {
		t.Errorf("scheduler has %d devices after replayed provision, want %d", got, len(exps))
	}
	// Different key material is refused.
	bad := ClusterProvisionRequest{Provisions: make([]ProvisionRequest, len(exps))}
	for i, q := range boot1.Quotes {
		pub, _ := client.New(exps[i]).VerifyRAResponse(nonce, q)
		senderPub, sealed, err := client.ProvisionDataKey(pub, cryptoutil.RandomKey(16))
		if err != nil {
			t.Fatal(err)
		}
		bad.Provisions[i] = ProvisionRequest{SenderPub: senderPub, Sealed: sealed}
	}
	err = c.Call("Cluster.Provision", bad, nil)
	if err == nil || !strings.Contains(err.Error(), "different key material") {
		t.Errorf("conflicting provision: err = %v, want different-key-material rejection", err)
	}

	// The handshake actually worked: a sealed job round-trips.
	w := accel.GenConv(4, 4, 1, 33)
	want, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	sealedIn, err := cryptoutil.Seal(key, w.Input, []byte("job-input"))
	if err != nil {
		t.Fatal(err)
	}
	var resp JobResponse
	if err := c.Call("Cluster.RunJob", JobRequest{Kernel: "Conv", Params: w.Params, SealedInput: sealedIn}, &resp); err != nil {
		t.Fatal(err)
	}
	out, err := cryptoutil.Open(key, resp.SealedOutput, []byte("job-output"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Error("sealed job output diverges from reference")
	}
}
