package remote

import (
	"bytes"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/client"
	"salus/internal/core"
	"salus/internal/fleet"
	"salus/internal/manufacturer"
	"salus/internal/rpc"
)

// fleetDeployment wires the elastic stack: one RPC manufacturer shared by
// the fleet, a fleet manager, and the fleet gateway on top.
type fleetDeployment struct {
	mgr     *fleet.Manager
	systems []*core.System
	srv     *rpc.Server
	addr    string
}

func newFleetDeployment(t testing.TB, k int, timing core.Timing) *fleetDeployment {
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

	mgr, err := fleet.New(fleet.Config{
		Kernel:       accel.Conv{},
		DNAPrefix:    "ELFL",
		Manufacturer: mfr,
		KeyService:   kc,
		Timing:       timing,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	srv, systems, addr, err := ServeFleet(mgr, k, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &fleetDeployment{mgr: mgr, systems: systems, srv: srv, addr: addr}
}

func (d *fleetDeployment) expectations() []client.Expectations {
	exps := make([]client.Expectations, len(d.systems))
	for i, sys := range d.systems {
		exps[i] = sys.Expectations()
	}
	return exps
}

func (d *fleetDeployment) session(t testing.TB) *ClusterSession {
	t.Helper()
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

func runFleetJob(t testing.TB, sess *ClusterSession, seed int64) {
	t.Helper()
	w := accel.GenConv(4, 4, 1, seed)
	ref, _ := w.Kernel.Compute(w.Params, w.Input)
	out, err := sess.RunJob(w.Kernel.Name(), w.Params, w.Input)
	if err != nil {
		t.Fatalf("job: %v", err)
	}
	if !bytes.Equal(out, ref) {
		t.Fatal("fleet gateway output diverges from reference")
	}
}

// TestFleetGatewayScaleUpAndDown attests a 2-board fleet, grows it to 4
// without any further owner round (sibling hand-off inside the host),
// shrinks back, and checks jobs flow correctly throughout.
func TestFleetGatewayScaleUpAndDown(t *testing.T) {
	d := newFleetDeployment(t, 2, core.Timing{})
	sess := d.session(t)
	runFleetJob(t, sess, 1)

	before := d.mgr.PreparedStats()
	grown, err := sess.Scale(2)
	if err != nil {
		t.Fatalf("scale up: %v", err)
	}
	if len(grown.Added) != 2 || len(grown.Devices) != 4 {
		t.Fatalf("scale up added %v, fleet %d devices", grown.Added, len(grown.Devices))
	}
	// Growth never re-ran the manipulation toolchain and never re-attested
	// through the owner: the new boards hit the prepared cache and took the
	// key from a sibling enclave.
	after := d.mgr.PreparedStats()
	if after.Manipulations != before.Manipulations {
		t.Errorf("scale-up re-ran manipulation (%d → %d)", before.Manipulations, after.Manipulations)
	}
	if after.ManipulationHits != before.ManipulationHits+2 {
		t.Errorf("scale-up missed the prepared cache (%d → %d hits)", before.ManipulationHits, after.ManipulationHits)
	}
	for i := 0; i < 8; i++ {
		runFleetJob(t, sess, int64(i))
	}

	shrunk, err := sess.Scale(-1)
	if err != nil {
		t.Fatalf("scale down: %v", err)
	}
	if len(shrunk.Removed) != 1 || len(shrunk.Devices) != 3 {
		t.Fatalf("scale down removed %v, fleet %d devices", shrunk.Removed, len(shrunk.Devices))
	}
	runFleetJob(t, sess, 42)

	stats, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Errorf("owner sees %d devices, want 3", len(stats))
	}
}

// TestFleetGatewayDrainRemove decommissions one named board through the
// RPC plane and checks membership and serving survive.
func TestFleetGatewayDrainRemove(t *testing.T) {
	d := newFleetDeployment(t, 3, core.Timing{})
	sess := d.session(t)
	target := d.systems[1].Device.DNA()

	devices, err := sess.Remove(target, 5*time.Second)
	if err != nil {
		t.Fatalf("remove: %v", err)
	}
	if len(devices) != 2 {
		t.Fatalf("fleet has %d devices after remove, want 2", len(devices))
	}
	for _, ds := range devices {
		if ds.DNA == target {
			t.Error("removed board still in stats")
		}
	}
	if d.mgr.System(target) != nil {
		t.Error("removed board still a fleet member")
	}
	runFleetJob(t, sess, 9)

	if _, err := sess.Remove("NO-SUCH-DNA", time.Second); err == nil {
		t.Error("removal of an unknown device succeeded")
	}
}

// TestFleetGatewayScaleBeforeAttestFails: growth needs a booted donor, so a
// fleet that was never attested/provisioned must refuse to scale.
func TestFleetGatewayScaleBeforeAttestFails(t *testing.T) {
	d := newFleetDeployment(t, 2, core.Timing{})
	sess, err := DialCluster(d.addr, d.expectations())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Scale(1); err == nil {
		t.Fatal("scale of an unattested fleet succeeded")
	}
}
