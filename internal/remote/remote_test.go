package remote

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"salus/internal/accel"
	"salus/internal/client"
	"salus/internal/core"
	"salus/internal/cryptoutil"
	"salus/internal/fpga"
	"salus/internal/manufacturer"
	"salus/internal/rpc"
	"salus/internal/sched"
	"salus/internal/sgx"
)

// newDeployment spins up the smallest networked deployment — one board
// behind a gateway, i.e. a pool of one — and returns it with the owner's
// expectations for that board.
func newDeployment(t testing.TB, kernel accel.Kernel) (*clusterDeployment, []client.Expectations) {
	t.Helper()
	d := newClusterDeployment(t, 1, kernel)
	return d, d.expectations()
}

func TestNetworkedAttestAndRunJob(t *testing.T) {
	d, exps := newDeployment(t, accel.Conv{})

	sess, err := DialCluster(d.addr, exps)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}
	if !d.booted(0) {
		t.Error("instance not booted after remote attestation")
	}

	w, _ := accel.TestWorkload("Conv", 11)
	out, err := sess.RunJob("Conv", w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Error("remote job result differs from local compute")
	}
}

func TestRunJobRequiresAttestation(t *testing.T) {
	d, exps := newDeployment(t, accel.Conv{})
	sess, err := DialCluster(d.addr, exps)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	w, _ := accel.TestWorkload("Conv", 1)
	if _, err := sess.RunJob("Conv", w.Params, w.Input); err == nil {
		t.Error("job ran without attestation")
	}
}

func TestAttestRejectsWrongExpectations(t *testing.T) {
	d, exps := newDeployment(t, accel.Conv{})
	exps[0].Digest[0] ^= 1 // owner expects a different bitstream
	sess, err := DialCluster(d.addr, exps)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err == nil {
		t.Error("attested a platform with the wrong CL digest")
	}
}

func TestSealedJobDataOpaqueToGateway(t *testing.T) {
	// The gateway (and anything on the TCP path) must never see plaintext
	// job data: seal happens in the owner's session, open inside the user
	// enclave. We check the wire forms directly.
	d, exps := newDeployment(t, accel.Affine{})
	sess, err := DialCluster(d.addr, exps)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}
	w, _ := accel.TestWorkload("Affine", 4)
	out, err := sess.RunJob("Affine", w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := w.Kernel.Compute(w.Params, w.Input)
	if !bytes.Equal(out, want) {
		t.Error("remote Affine differs")
	}
	// Tampered sealed input is rejected by the enclave.
	bad, err := DialCluster(d.addr, exps)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	// Reuse the attested session's key by sending garbage via raw call.
	if _, err := d.systems[0].RunJobSealed("Affine", w.Params, []byte("garbage")); err == nil {
		t.Error("enclave accepted tampered sealed input")
	}
}

func TestKeyClientAgainstRealService(t *testing.T) {
	mfr, err := manufacturer.New()
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := ServeManufacturer(mfr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	kc, err := DialManufacturer(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer kc.Close()

	root, err := kc.Root()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(root, mfr.Root()) {
		t.Error("root over the wire differs")
	}
	// Unknown device propagates the error across the wire.
	platform, err := sgx.NewPlatform(mfr.Authority())
	if err != nil {
		t.Fatal(err)
	}
	enclave := platform.Load(sgx.EnclaveImage{Name: "sm", Version: 1, Code: []byte("sm")})
	_, err = kc.RequestDeviceKey(enclave.Quote([sgx.ReportDataSize]byte{}), "NOPE")
	if err == nil {
		t.Error("unknown device accepted over the wire")
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := DialManufacturer("127.0.0.1:1"); err == nil {
		t.Error("dialed a dead port")
	}
	if _, err := DialCluster("127.0.0.1:1", []client.Expectations{{}}); err == nil {
		t.Error("dialed a dead gateway port")
	}
	if _, err := DialCluster("127.0.0.1:1", nil); err == nil {
		t.Error("opened a session with no device expectations")
	}
}

func TestKeyClientSurvivesServerRestart(t *testing.T) {
	mfr, err := manufacturer.New()
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := ServeManufacturer(mfr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	kc, err := DialManufacturer(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer kc.Close()

	if _, err := kc.Root(); err != nil {
		t.Fatal(err)
	}
	// The server restarts on the same address (a rolling deploy); the
	// client's connection dies mid-session but the next call redials.
	srv.Close()
	srv2, _, err := ServeManufacturer(mfr, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	root, err := kc.Root()
	if err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if !bytes.Equal(root, mfr.Root()) {
		t.Error("root differs after restart")
	}
}

func TestKeyClientDoesNotRetryRejections(t *testing.T) {
	mfr, err := manufacturer.New()
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := ServeManufacturer(mfr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	kc, err := DialManufacturer(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer kc.Close()
	platform, err := sgx.NewPlatform(mfr.Authority())
	if err != nil {
		t.Fatal(err)
	}
	enclave := platform.Load(sgx.EnclaveImage{Name: "sm", Version: 1, Code: []byte("sm")})
	before := mfr.Requests()
	if _, err := kc.RequestDeviceKey(enclave.Quote([sgx.ReportDataSize]byte{}), "NOPE"); err == nil {
		t.Fatal("unknown device accepted")
	}
	if got := mfr.Requests() - before; got != 1 {
		t.Errorf("rejection retried: %d requests, want 1", got)
	}
}

// clusterDeployment wires a pool: one manufacturer RPC server shared by N
// systems (each its own device/DNA), a scheduler, and the cluster gateway.
type clusterDeployment struct {
	systems []*core.System
	sch     *sched.Scheduler
	srv     *rpc.Server
	addr    string
}

func newClusterDeployment(t testing.TB, n int, kernel accel.Kernel) *clusterDeployment {
	t.Helper()
	return newClusterDeploymentTiming(t, n, kernel, core.Timing{})
}

// newClusterDeploymentTiming is newClusterDeployment with explicit device
// timing (a zero Timing defaults to FastTiming inside core.NewSystem).
func newClusterDeploymentTiming(t testing.TB, n int, kernel accel.Kernel, timing core.Timing, opts ...GatewayOption) *clusterDeployment {
	t.Helper()
	mfr, err := manufacturer.New()
	if err != nil {
		t.Fatal(err)
	}
	mfrSrv, mfrAddr, err := ServeManufacturer(mfr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mfrSrv.Close() })
	kc, err := DialManufacturer(mfrAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kc.Close() })

	systems := make([]*core.System, n)
	for i := range systems {
		systems[i], err = core.NewSystem(core.SystemConfig{
			Kernel:       kernel,
			Seed:         int64(500 + i),
			DNA:          fpga.DNA(fmt.Sprintf("CLUSTER-%02d", i)),
			Manufacturer: mfr,
			KeyService:   kc,
			Timing:       timing,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sch := sched.New(sched.Config{})
	t.Cleanup(sch.Close)
	srv, addr, err := ServeCluster(systems, sch, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &clusterDeployment{systems: systems, sch: sch, srv: srv, addr: addr}
}

// booted reads gateway-side state from the owner's side of the test. Gateway
// and owner share this process, but the owner learns that Provision finished
// only over TCP, a causality the race detector cannot see; the scheduler
// lock, which the Provision handler took to register the device after
// provisioning it, orders the read for the detector as well.
func (d *clusterDeployment) booted(i int) bool {
	d.sch.Stats()
	return d.systems[i].Booted()
}

func (d *clusterDeployment) expectations() []client.Expectations {
	exps := make([]client.Expectations, len(d.systems))
	for i, sys := range d.systems {
		exps[i] = sys.Expectations()
	}
	return exps
}

func TestClusterAttestAndRunJobs(t *testing.T) {
	d := newClusterDeployment(t, 3, accel.Conv{})
	sess, err := DialCluster(d.addr, d.expectations())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}
	for i := range d.systems {
		if !d.booted(i) {
			t.Fatalf("device %d not booted after cluster attestation", i)
		}
	}

	const jobs = 6
	for i := 0; i < jobs; i++ {
		w := accel.GenConv(4, 4, 1, int64(i))
		out, err := sess.RunJob("Conv", w.Params, w.Input)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		want, err := w.Kernel.Compute(w.Params, w.Input)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, want) {
			t.Errorf("job %d output diverges from reference", i)
		}
	}

	stats, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, ds := range stats {
		total += ds.Completed
		if ds.Failed != 0 {
			t.Errorf("device %s failed %d jobs", ds.DNA, ds.Failed)
		}
	}
	if total != jobs {
		t.Errorf("cluster completed %d jobs, want %d", total, jobs)
	}
}

func TestClusterAttestAllOrNothing(t *testing.T) {
	// One device's expectations are wrong (foreign DNA): attestation of the
	// pool must fail and NO device may receive the data key.
	d := newClusterDeployment(t, 2, accel.Conv{})
	exps := d.expectations()
	exps[1].DNA = "NOT-THE-DEVICE"
	sess, err := DialCluster(d.addr, exps)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err == nil {
		t.Fatal("cluster attested with a mismatched device expectation")
	}
	for i, sys := range d.systems {
		if sys.Booted() {
			t.Errorf("device %d provisioned despite failed pool attestation", i)
		}
	}
	if _, err := sess.RunJob("Conv", [4]uint64{4, 4, 1}, []byte{1, 2, 3, 4}); err == nil {
		t.Error("unattested cluster session ran a job")
	}
}

func TestClusterJobOpaqueToGateway(t *testing.T) {
	// The gateway (and the scheduler behind it) only ever see sealed bytes.
	d := newClusterDeployment(t, 2, accel.Conv{})
	sess, err := DialCluster(d.addr, d.expectations())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}
	secret := []byte("column A: patient 4418 positive")
	pad := make([]byte, 64-len(secret)%64)
	w := accel.Workload{Kernel: accel.Conv{}, Params: [4]uint64{4, 4, 2}, Input: append(secret, pad...)}
	sealedIn, err := cryptoutil.Seal(sessKey(sess), w.Input, []byte("job-input"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sealedIn, secret) {
		t.Error("sealed job input leaks plaintext")
	}
	if _, err := sess.RunJob("Conv", w.Params, w.Input); err != nil {
		t.Fatal(err)
	}
}

// sessKey exposes the session's provisioned key to the leak test above.
func sessKey(s *ClusterSession) []byte { return s.dataKey }

// TestSessionRunJobAllocCount is the end-to-end allocation tripwire of one
// owner job: a 2 KiB RunJob through a ClusterSession, the binary wire, the
// gateway, the scheduler and a board, client and server in one process,
// averaged over four session epochs. Both ends expand the data key once
// and the board's register frames reuse their buffers. Measured at the
// commit before that: 102 allocations a job; then 24, then 22; then 17,
// since the client seals into a reused buffer and the board's payload
// buffers are owner-held scratch; then 16, since the kernel computes into
// the fabric's output buffer; then 6, since the rpc layer, the session and
// the scheduler recycle their per-call envelopes, reply channels, handler
// goroutines and futures; then 5, since the gateway handler runs its lone
// job on the idle board itself, so the job's future needs no wake-up
// channel; then 4, since the gateway's decoded kernel name is interned;
// now 2, since the board's data plane runs under one cached AES-GCM per
// data key at each end instead of the host's and the fabric's per-job CTR
// streams. What is left: the client's response frame, which is handed to
// the caller, and the scheduler's queue entry.
func TestSessionRunJobAllocCount(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	d := newClusterDeployment(t, 1, accel.Conv{})
	sess, err := DialCluster(d.addr, d.expectations())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}
	w := accel.GenConv(16, 16, 4, 1)
	run := func() {
		if _, err := sess.RunJob("Conv", w.Params, w.Input); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < core.DefaultSessionRekeyEvery; i++ {
		run()
	}
	const budget = 2
	allocs := testing.AllocsPerRun(4*core.DefaultSessionRekeyEvery, run)
	t.Logf("2 KiB session RunJob: %.2f allocations a job (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("2 KiB session RunJob: %.2f allocations a job, budget %d", allocs, budget)
	}
}

// TestSessionBulkJobAllocBudget pins what a warm gateway and its Session
// allocate, client and server in one process, for a 1 MiB Conv job: the
// client's response frame, the one buffer of output size left per job,
// plus 64 KiB of everything else. The request frame, the seal buffer and
// Conv's 48 KiB ring of packed rows are recycled (2 × sealed output when
// the seal buffer was a fresh allocation per job, and the ring was a
// fresh allocation too until Conv pooled it). A garbage
// collection can cost a pooled class a refill, so the pin is the quietest
// of eight windows of four calls.
func TestSessionBulkJobAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	d := newClusterDeployment(t, 1, accel.Conv{})
	sess, err := Dial(d.addr, d.expectations())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}
	w := accel.GenConv(256, 256, 8, 1)
	sealedOut := (256-2)*(256-2)*4 + cryptoutil.SealOverhead
	run := func() {
		if _, _, err := sess.RunJob("", "Conv", w.Params, w.Input); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		run() // warm: session, pools, board scratch
	}
	const calls, windows = 4, 8
	per := uint64(math.MaxUint64)
	for i := 0; i < windows; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for j := 0; j < calls; j++ {
			run()
		}
		runtime.ReadMemStats(&after)
		per = min(per, (after.TotalAlloc-before.TotalAlloc)/calls)
	}
	budget := uint64(sealedOut + 64<<10)
	t.Logf("1 MiB session RunJob: %d KiB a job (budget %d KiB)", per>>10, budget>>10)
	if per > budget {
		t.Errorf("1 MiB session RunJob: %d KiB a job, budget %d KiB", per>>10, budget>>10)
	}
}

// TestSessionSealBuffersUnderConcurrency: concurrent calls on one session
// each seal into a seal buffer of their own, lent back after the call, so
// distinct jobs and batches in flight at once all get their own results.
func TestSessionSealBuffersUnderConcurrency(t *testing.T) {
	d := newClusterDeployment(t, 2, accel.Conv{})
	sess, err := DialCluster(d.addr, d.expectations())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}
	const callers, calls = 6, 8
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				seed := int64(c*calls + i)
				w := accel.GenConv(4+c, 4+i, 1, seed)
				want, _ := w.Kernel.Compute(w.Params, w.Input)
				if c%2 == 0 {
					got, err := sess.RunJob("Conv", w.Params, w.Input)
					if err != nil || !bytes.Equal(got, want) {
						t.Errorf("caller %d job %d: wrong result (%v)", c, i, err)
					}
					continue
				}
				w2 := accel.GenConv(5, 5, 2, seed+1000)
				want2, _ := w2.Kernel.Compute(w2.Params, w2.Input)
				res, err := sess.RunBatch("Conv", []BatchInput{{w.Params, w.Input}, {w2.Params, w2.Input}})
				if err != nil || len(res) != 2 || !bytes.Equal(res[0].Output, want) || !bytes.Equal(res[1].Output, want2) {
					t.Errorf("caller %d batch %d: wrong results (%v)", c, i, err)
				}
			}
		}()
	}
	wg.Wait()
}
