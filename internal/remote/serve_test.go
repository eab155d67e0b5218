package remote

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/client"
	"salus/internal/core"
	"salus/internal/federation"
	"salus/internal/fleet"
	"salus/internal/fpga"
	"salus/internal/rpc"
	"salus/internal/sched"
)

// The N = 1 contract: a fixed pool, a fleet and a region are the same
// gateway (Serve) and the same owner session (Dial), and a one-shard
// gateway answers exactly as a plain pool always did.

// expectationsOf lists the owner's expectations for systems, in order.
func expectationsOf(systems []*core.System) []client.Expectations {
	exps := make([]client.Expectations, len(systems))
	for i, sys := range systems {
		exps[i] = sys.Expectations()
	}
	return exps
}

// TestOneShardJobResponsesCarryNoPlacement is the byte-identity golden: the
// JobResponse and BatchResponse frames a one-shard gateway sends are the
// sealed outputs behind an empty placement (u8 spilled = 0, u16 shard
// length = 0), exactly what a pool encoded before it was a federation —
// with or without a session key.
func TestOneShardJobResponsesCarryNoPlacement(t *testing.T) {
	d := newClusterDeployment(t, 2, accel.Conv{})
	p := newFrameProxy(t, d.addr)
	sess, err := Dial(p.addr, d.expectations())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}
	// capture keeps the last result frame's payload; p.set(nil) then orders
	// the test's read of it after the hook.
	var result []byte
	capture := func(f *wireFrame) {
		if !f.toGateway && f.kind == 2 {
			result = append([]byte(nil), f.payload...)
		}
	}
	w := accel.GenConv(4, 4, 1, 5)
	for _, key := range []string{"", "dataset-1"} {
		p.set(capture)
		if _, placement, err := sess.RunJob(key, "Conv", w.Params, w.Input); err != nil || placement != (Placement{}) {
			t.Fatalf("RunJob(%q): placement %+v, err %v", key, placement, err)
		}
		p.set(nil)
		var job JobResponse
		if err := job.DecodeWire(result); err != nil {
			t.Fatal(err)
		}
		if want := appendJobResponse(nil, JobResponse{SealedOutput: job.SealedOutput}); !bytes.Equal(result, want) || !bytes.HasPrefix(result, []byte{0, 0, 0}) {
			t.Errorf("RunJob(%q) response % x, want the pool's % x", key, result[:8], want[:8])
		}

		p.set(capture)
		if _, placement, err := sess.RunBatch(key, "Conv", []BatchInput{{w.Params, w.Input}, {w.Params, w.Input}}); err != nil || placement != (Placement{}) {
			t.Fatalf("RunBatch(%q): placement %+v, err %v", key, placement, err)
		}
		p.set(nil)
		var batch BatchResponse
		if err := batch.DecodeWire(result); err != nil {
			t.Fatal(err)
		}
		if want := appendBatchResponse(nil, BatchResponse{Results: batch.Results}); !bytes.Equal(result, want) || !bytes.HasPrefix(result, []byte{0, 0, 0}) {
			t.Errorf("RunBatch(%q) response % x, want the pool's % x", key, result[:8], want[:8])
		}
	}
}

// n1Topology is one deployment behind Serve. serve builds its gateway on
// addr; a restart calls it again on the same address, over already
// provisioned systems and without a second owner handshake.
type n1Topology struct {
	name   string
	shards int
	fixed  bool // a fixed pool: Scale and Remove are refused
	owner  []*core.System
	serve  func(addr string) (*rpc.Server, string, error)
}

func fixedPool(t *testing.T) n1Topology {
	systems := make([]*core.System, 2)
	for i := range systems {
		sys, err := core.NewSystem(core.SystemConfig{Kernel: accel.Conv{}, Seed: 7, DNA: fpga.DNA(fmt.Sprintf("N1FX-%02d", i))})
		if err != nil {
			t.Fatal(err)
		}
		systems[i] = sys
	}
	sch := sched.New(sched.Config{})
	t.Cleanup(sch.Close)
	// Every (re)start wraps the same scheduler afresh, as a restarted
	// process serving the same boards would.
	return n1Topology{name: "fixed pool", shards: 1, fixed: true, owner: systems,
		serve: func(addr string) (*rpc.Server, string, error) {
			return Serve(federation.Single(fleet.Fixed(sch, systems)), systems, addr)
		}}
}

func elasticFleet(t *testing.T) n1Topology {
	mgr, err := fleet.New(fleet.Config{Kernel: accel.Conv{}, DNAPrefix: "N1FL"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	systems, err := mgr.SpawnN(2)
	if err != nil {
		t.Fatal(err)
	}
	fed := federation.Single(mgr)
	return n1Topology{name: "fleet", shards: 1, owner: systems,
		serve: func(addr string) (*rpc.Server, string, error) { return Serve(fed, systems, addr) }}
}

func threeShardRegion(t *testing.T) n1Topology {
	d, err := federation.BuildLocal(federation.LocalSpec{
		Shards: 3, DevicesPerShard: 2, Kernel: accel.Conv{}, RemoteHandshake: true,
		Federation: federation.Config{SpillHighWater: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return n1Topology{name: "3-shard region", shards: 3, owner: d.RootSystems,
		serve: func(addr string) (*rpc.Server, string, error) { return Serve(d.Fed, d.RootSystems, addr) }}
}

// TestOneSessionEveryTopology runs one Session through every verb against
// each topology: one handshake of two calls, placement only where there is
// more than one shard, Route naming the lone shard at N = 1, and a fixed
// pool refusing Scale and Remove — cleanly, before and after a gateway
// restart.
func TestOneSessionEveryTopology(t *testing.T) {
	w := accel.GenConv(4, 4, 1, 3)
	want, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range []func(*testing.T) n1Topology{fixedPool, elasticFleet, threeShardRegion} {
		top := build(t)
		t.Run(top.name, func(t *testing.T) {
			srv, addr, err := top.serve("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer func() { srv.Close() }()
			sess, err := Dial(addr, expectationsOf(top.owner))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if err := sess.Attest(); err != nil {
				t.Fatal(err)
			}

			run := func(key string) {
				t.Helper()
				out, placement, err := sess.RunJob(key, "Conv", w.Params, w.Input)
				if err != nil || !bytes.Equal(out, want) {
					t.Fatalf("RunJob(%q): %v", key, err)
				}
				res, bplace, err := sess.RunBatch(key, "Conv", []BatchInput{{w.Params, w.Input}})
				if err != nil || len(res) != 1 || !bytes.Equal(res[0].Output, want) {
					t.Fatalf("RunBatch(%q): %v", key, err)
				}
				route, err := sess.Route(key)
				if err != nil {
					t.Fatal(err)
				}
				if top.shards == 1 {
					if route.Shard != "gw0" || placement != (Placement{}) || bplace != (Placement{}) {
						t.Errorf("one shard: route %q, placements %+v %+v; want gw0 and none", route.Shard, placement, bplace)
					}
				} else if placement.Shard != route.Shard || bplace.Shard != route.Shard {
					t.Errorf("key %q routes to %s but ran on %s and %s", key, route.Shard, placement.Shard, bplace.Shard)
				}
			}
			for i := 0; i < 6; i++ {
				run(fmt.Sprintf("dataset-%d", i))
			}
			if devs, err := sess.DeviceStats(); err != nil || len(devs) < len(top.owner) {
				t.Errorf("DeviceStats: %d devices, err %v", len(devs), err)
			}
			if snap, err := sess.Metrics(); err != nil || len(snap.Counters) == 0 {
				t.Errorf("Metrics: %d counters, err %v", len(snap.Counters), err)
			}
			if ring, err := sess.Stats(); err != nil || len(ring.Shards) != top.shards {
				t.Errorf("ring Stats: %d shards, err %v; want %d", len(ring.Shards), err, top.shards)
			}

			elastic := func() {
				t.Helper()
				grown, err := sess.Scale(1)
				if top.fixed {
					if err == nil {
						t.Error("a fixed pool grew")
					}
					if _, err := sess.Scale(-1); err == nil {
						t.Error("a fixed pool shrank")
					}
					if _, err := sess.Remove(top.owner[0].Device.DNA(), time.Second); err == nil {
						t.Error("a fixed pool decommissioned a board")
					}
					return
				}
				if err != nil || len(grown.Added) != 1 {
					t.Fatalf("Scale(1): added %v, err %v", grown.Added, err)
				}
				if _, err := sess.Remove(grown.Added[0], time.Second); err != nil {
					t.Fatalf("Remove of the added board: %v", err)
				}
			}
			elastic()

			srv.Close()
			if srv, _, err = top.serve(addr); err != nil {
				t.Fatalf("rebind %s: %v", addr, err)
			}
			run("after-restart")
			elastic()
			if got := sess.HandshakeCalls(); got != 2 {
				t.Errorf("owner handshake calls = %d, want 2", got)
			}
		})
	}
}

// TestRefusedRemoveDrainsNothing: Remove on a pool that may not lose a
// board, a fixed pool or a fleet at its MinDevices floor, is refused before
// anything drains: the board stays registered and keeps serving.
func TestRefusedRemoveDrainsNothing(t *testing.T) {
	w := accel.GenConv(4, 4, 1, 3)
	want, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		build func(*testing.T) (*federation.Federation, []*core.System)
	}{
		{"fixed pool", func(t *testing.T) (*federation.Federation, []*core.System) {
			sys, err := core.NewSystem(core.SystemConfig{Kernel: accel.Conv{}, Seed: 7, DNA: "DRFX-00"})
			if err != nil {
				t.Fatal(err)
			}
			sch := sched.New(sched.Config{})
			t.Cleanup(sch.Close)
			return federation.Single(fleet.Fixed(sch, []*core.System{sys})), []*core.System{sys}
		}},
		{"fleet at its floor", func(t *testing.T) (*federation.Federation, []*core.System) {
			mgr, err := fleet.New(fleet.Config{Kernel: accel.Conv{}, DNAPrefix: "DRFL", MinDevices: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(mgr.Close)
			systems, err := mgr.SpawnN(1)
			if err != nil {
				t.Fatal(err)
			}
			return federation.Single(mgr), systems
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fed, owner := c.build(t)
			srv, addr, err := Serve(fed, owner, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			sess, err := Dial(addr, expectationsOf(owner))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if err := sess.Attest(); err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Remove(owner[0].Device.DNA(), time.Second); err == nil || !strings.Contains(err.Error(), "would drop below 1 devices") {
				t.Fatalf("Remove of the only board: err = %v, want the manager's floor refusal", err)
			}
			if devs, err := sess.DeviceStats(); err != nil || len(devs) != 1 {
				t.Fatalf("after the refused removal: %d devices registered, err %v; want 1", len(devs), err)
			}
			if out, _, err := sess.RunJob("", "Conv", w.Params, w.Input); err != nil || !bytes.Equal(out, want) {
				t.Errorf("the board after a refused removal: %v", err)
			}
		})
	}
}
