package remote

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"salus/internal/core"
	"salus/internal/fleet"
	"salus/internal/fpga"
	"salus/internal/rpc"
	"salus/internal/sched"
)

// --- Elastic fleet gateway ---------------------------------------------------
//
// The elastic gateway: the shared Boot/Provision handshake and job plane,
// plus Scale and Drain verbs that change pool membership while the gateway
// keeps serving.
//
// Security of growth without a client round trip: the data owner attested
// and provisioned the initial boards. A board added by Cluster.Scale boots
// the same CL (the fleet's prepared-bitstream cache pins one digest) and
// receives the data key only through the sibling enclave hand-off
// (core.AdoptDataKeyFrom): an already-attested user enclave releases the
// key solely to a local enclave on the same platform with an identical
// measurement, over a report-bound ephemeral channel. The host brokers
// ciphertext; it can deny growth, never mint a rogue member. The owner can
// audit membership at any time via Cluster.Stats.

// ScaleRequest asks the fleet to grow (Delta > 0) or shrink (Delta < 0).
type ScaleRequest struct {
	Delta int `json:"delta"`
}

// ScaleResponse reports the membership change actually applied.
type ScaleResponse struct {
	Added   []fpga.DNA          `json:"added,omitempty"`
	Removed []fpga.DNA          `json:"removed,omitempty"`
	Devices []sched.DeviceStats `json:"devices"`
}

// DrainDeviceRequest drains one board; with Remove set it is also
// decommissioned once (bounded) draining finishes.
type DrainDeviceRequest struct {
	DNA           fpga.DNA `json:"dna"`
	TimeoutMillis int64    `json:"timeout_millis"`
	Remove        bool     `json:"remove"`
}

// ServeFleet spawns k member systems from the fleet manager and exposes the
// cluster gateway plus the elastic Scale/Drain plane on addr. The returned
// systems (in handshake order) let the CSP publish per-device expectations;
// the data owner attests them through the ordinary ClusterSession.Attest.
// The manager must be empty and is consumed: the gateway adopts each system
// after the owner's provisioning completes, and Scale/Drain mutate its
// membership afterwards.
func ServeFleet(m *fleet.Manager, k int, addr string, opts ...GatewayOption) (*rpc.Server, []*core.System, string, error) {
	if k <= 0 {
		return nil, nil, "", fmt.Errorf("remote: fleet of %d devices", k)
	}
	systems, err := m.SpawnN(k)
	if err != nil {
		return nil, nil, "", err
	}
	srv := newGateway(systems, m.Adopt, backend{sch: m.Scheduler()}, opts)

	srv.Handle("Cluster.Scale", rpc.Typed(func(in ScaleRequest) (ScaleResponse, error) {
		var resp ScaleResponse
		switch {
		case in.Delta > 0:
			for i := 0; i < in.Delta; i++ {
				dna, err := m.Add()
				if err != nil {
					resp.Devices = m.Stats()
					return resp, fmt.Errorf("grew by %d of %d: %w", i, in.Delta, err)
				}
				resp.Added = append(resp.Added, dna)
			}
		case in.Delta < 0:
			victims := shrinkOrder(m.Stats(), -in.Delta)
			for i, dna := range victims {
				if _, err := m.Remove(dna); err != nil {
					resp.Devices = m.Stats()
					return resp, fmt.Errorf("shrank by %d of %d: %w", i, -in.Delta, err)
				}
				resp.Removed = append(resp.Removed, dna)
			}
		}
		resp.Devices = m.Stats()
		return resp, nil
	}))
	srv.Handle("Cluster.Drain", rpc.Typed(func(in DrainDeviceRequest) (ClusterStatsResponse, error) {
		timeout := time.Duration(in.TimeoutMillis) * time.Millisecond
		err := m.Scheduler().Drain(in.DNA, timeout)
		// A drain timeout does not block decommissioning (matching
		// fleet.Remove's semantics); anything else does.
		if err != nil && !(in.Remove && errors.Is(err, sched.ErrDrainTimeout)) {
			return ClusterStatsResponse{Devices: m.Stats()}, err
		}
		if in.Remove {
			if _, err := m.Remove(in.DNA); err != nil {
				return ClusterStatsResponse{Devices: m.Stats()}, err
			}
		}
		return ClusterStatsResponse{Devices: m.Stats()}, nil
	}))

	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, nil, "", err
	}
	return srv, systems, bound, nil
}

// shrinkOrder picks n decommission victims: permanently quarantined boards
// first, then quarantined, then the least-loaded healthy boards. Stats
// arrive one row per reconfigurable partition; a board's health is its
// sickest RP, its load the sum over its RPs, and each board is named once
// no matter how many partitions it serves.
func shrinkOrder(stats []sched.DeviceStats, n int) []fpga.DNA {
	type board struct {
		dna    fpga.DNA
		rank   int
		queued int64
	}
	rank := func(ds sched.DeviceStats) int {
		switch {
		case ds.Permanent:
			return 0
		case ds.Quarantined:
			return 1
		default:
			return 2
		}
	}
	byDNA := make(map[fpga.DNA]*board)
	var boards []*board
	for _, ds := range stats {
		b := byDNA[ds.DNA]
		if b == nil {
			b = &board{dna: ds.DNA, rank: rank(ds)}
			byDNA[ds.DNA] = b
			boards = append(boards, b)
		}
		if r := rank(ds); r < b.rank {
			b.rank = r
		}
		b.queued += ds.Queued
	}
	sort.SliceStable(boards, func(i, j int) bool {
		if boards[i].rank != boards[j].rank {
			return boards[i].rank < boards[j].rank
		}
		return boards[i].queued < boards[j].queued
	})
	if n > len(boards) {
		n = len(boards)
	}
	out := make([]fpga.DNA, n)
	for i := 0; i < n; i++ {
		out[i] = boards[i].dna
	}
	return out
}

// Scale asks the gateway to grow or shrink the fleet. Growth needs no new
// attestation round: the data key reaches new boards only via the sibling
// enclave hand-off (see the package comment above ScaleRequest), and the
// returned stats let the owner audit the resulting membership.
func (s *ClusterSession) Scale(delta int) (ScaleResponse, error) {
	var resp ScaleResponse
	if err := s.conn.call("Cluster.Scale", ScaleRequest{Delta: delta}, &resp); err != nil {
		return resp, err
	}
	return resp, nil
}

// DrainDevice stops routing to one board and waits (bounded by timeout;
// zero waits indefinitely) for its accepted jobs; with remove set the board
// is then decommissioned.
func (s *ClusterSession) DrainDevice(dna fpga.DNA, timeout time.Duration, remove bool) ([]sched.DeviceStats, error) {
	var resp ClusterStatsResponse
	req := DrainDeviceRequest{DNA: dna, TimeoutMillis: timeout.Milliseconds(), Remove: remove}
	if err := s.conn.call("Cluster.Drain", req, &resp); err != nil {
		return nil, err
	}
	return resp.Devices, nil
}
