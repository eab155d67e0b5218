package core

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"salus/internal/accel"
	"salus/internal/fpga"
	"salus/internal/smapp"
	"salus/internal/userapp"
)

// TestPhaseMoves walks every (phase, event) pair and pins which moves are
// legal and where they lead. Every other pair is refused and leaves the
// phase where it was; the terminal phases accept no event at all.
func TestPhaseMoves(t *testing.T) {
	type move struct {
		from Phase
		on   Event
	}
	want := map[move]Phase{
		{PhaseServing, EventTrip}:        PhaseQuarantined,
		{PhaseQuarantined, EventTrip}:    PhaseQuarantined,
		{PhaseQuarantined, EventProbe}:   PhaseProbing,
		{PhaseQuarantined, EventReadmit}: PhaseServing,
		{PhaseProbing, EventTrip}:        PhaseQuarantined,
		{PhaseProbing, EventAbandon}:     PhaseQuarantined,
		{PhaseProbing, EventReadmit}:     PhaseServing,
		{PhaseProbing, EventWriteOff}:    PhaseWrittenOff,
		{PhaseSpawned, EventAttest}:      PhaseAttested,
		{PhaseSpawned, EventReclaim}:     PhaseReclaimed,
		{PhaseAttested, EventKey}:        PhaseKeyed,
		{PhaseAttested, EventReclaim}:    PhaseReclaimed,
		{PhaseKeyed, EventServe}:         PhaseKeyed,
		{PhaseKeyed, EventReclaim}:       PhaseReclaimed,
	}
	legal := 0
	for p := Phase(0); p < numPhases; p++ {
		for e := Event(0); e < numEvents; e++ {
			got, err := p.Next(e)
			to, ok := want[move{p, e}]
			switch {
			case ok && (err != nil || got != to):
				t.Errorf("%s on a %s partition: got %s, %v; want %s", e, p, got, err, to)
			case !ok && (err == nil || got != p):
				t.Errorf("%s on a %s partition: got %s, %v; want a refusal", e, p, got, err)
			case ok:
				legal++
			}
		}
	}
	if legal != len(want) {
		t.Errorf("%d legal moves, want %d", legal, len(want))
	}
	for _, p := range []Phase{PhaseWrittenOff, PhaseReclaimed} {
		for e := Event(0); e < numEvents; e++ {
			if _, err := p.Next(e); err == nil {
				t.Errorf("terminal phase %s accepts %s", p, e)
			}
		}
	}
	if _, err := numPhases.Next(EventKey); err == nil {
		t.Error("an unknown phase accepts an event")
	}
	if n := testing.AllocsPerRun(100, func() { PhaseServing.Next(EventReadmit) }); n != 0 {
		t.Errorf("a refused move allocates %.1f times", n)
	}
}

// sibling assembles an unbooted system on donor's manufacturer and TEE
// platform, running the same user program: a candidate for its hand-off.
func sibling(t *testing.T, donor *System, dna fpga.DNA, cfg SystemConfig) *System {
	t.Helper()
	return newTestSystem(t, func(c *SystemConfig) {
		if cfg.Kernel != nil {
			c.Kernel = cfg.Kernel
		}
		c.Package, c.DNA = cfg.Package, dna
		c.Manufacturer, c.HostPlatform = donor.Manufacturer, donor.HostPlatform
	})
}

// TestHandoffKeysOnlyTheAttestedCL: a donor enclave keys a sibling only for
// the CL digest the donor attested itself. A sibling on the same platform
// with the same user program is refused when it deployed another CL, when
// it holds no CL result, and when its CL failed attestation. The hand-off
// is driven enclave to enclave, as a host that skips its own bookkeeping
// would drive it, so every refusal comes from an enclave.
func TestHandoffKeysOnlyTheAttestedCL(t *testing.T) {
	donor := newTestSystem(t)
	if _, err := donor.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	handoff := func(rec *System) error {
		req, err := rec.User.RequestDataKey(donor.User.Measurement())
		if err != nil {
			return err
		}
		grant, err := donor.ShareDataKey(req)
		if err != nil {
			return err
		}
		return rec.User.AcceptDataKey(grant)
	}

	same := sibling(t, donor, "SIB-SAME", SystemConfig{Package: donor.Package})
	if err := same.BootSibling(); err != nil {
		t.Fatal(err)
	}
	if err := handoff(same); err != nil {
		t.Fatalf("a sibling that attested the donor's CL was refused: %v", err)
	}

	for _, tc := range []struct {
		name string
		cfg  SystemConfig
		boot func(*System) error
		want error // the recipient enclave's own refusal, if any
	}{
		{"a different digest", SystemConfig{Kernel: accel.Affine{}}, (*System).BootSibling, nil},
		{"no CL result", SystemConfig{Package: donor.Package}, func(*System) error { return nil }, userapp.ErrNoCLResult},
		// ③–⑥ run, ⑦ does not: the SM enclave reports the donor's own
		// digest, unattested.
		{"a failed CL result", SystemConfig{Package: donor.Package}, func(s *System) error {
			if err := s.User.LocalAttestSM(); err != nil {
				return err
			}
			if err := s.User.ForwardMetadata(smapp.Metadata{Digest: s.Package.Digest, Loc: s.Package.Loc}); err != nil {
				return err
			}
			if err := s.SM.FetchDeviceKey(); err != nil {
				return err
			}
			if err := s.SM.DeployCL(s.Package.Encoded); err != nil {
				return err
			}
			return s.User.CollectCLResult()
		}, userapp.ErrCLFailed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := sibling(t, donor, fpga.DNA("SIB-"+strings.ReplaceAll(tc.name, " ", "-")), tc.cfg)
			if err := tc.boot(rec); err != nil {
				t.Fatal(err)
			}
			err := handoff(rec)
			if err == nil {
				t.Fatal("the sibling was keyed")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("refusal %v, want %v", err, tc.want)
			}
			if _, err := rec.User.DataKey(); err == nil {
				t.Error("the refused sibling holds a data key")
			}
		})
	}
}

// TestPhaseReadsRaceReclaimAndShare reads a donor's trust phase while it is
// reclaimed in the middle of sibling hand-offs. Every read and move of the
// phase holds the job lock, so the race detector finds nothing; the phase
// never goes back to keyed once reclaimed, and a reclaimed donor refuses
// to share.
func TestPhaseReadsRaceReclaimAndShare(t *testing.T) {
	donor := newTestSystem(t)
	if _, err := donor.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	rec := sibling(t, donor, "SIB-RACE", SystemConfig{Package: donor.Package})
	if err := rec.BootSibling(); err != nil {
		t.Fatal(err)
	}
	req, err := rec.BeginAdoptDataKey(donor.User.Measurement())
	if err != nil {
		t.Fatal(err)
	}

	// Readers spin until stop; each signals once it has read, and the
	// writers start then, so reads and writes overlap.
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	readers.Add(2)
	writers.Add(2)
	spin := func(read func()) {
		defer readers.Done()
		writers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				read()
			}
		}
	}
	go spin(func() { donor.Booted() })
	var reclaimed, backwards bool
	go spin(func() {
		p := donor.Phase()
		backwards = backwards || p != PhaseKeyed && p != PhaseReclaimed || reclaimed && p != PhaseReclaimed
		reclaimed = reclaimed || donor.Reclaimed()
	})
	writers.Wait()
	writers.Add(2)
	go func() {
		defer writers.Done()
		for i := 0; i < 8; i++ {
			donor.ShareDataKey(req) //nolint:errcheck // granted before the reclaim or refused after it
		}
	}()
	go func() {
		defer writers.Done()
		donor.Reclaim()
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if backwards {
		t.Error("the donor left its keyed or reclaimed phase mid reclaim")
	}
	if !donor.Reclaimed() || donor.Booted() {
		t.Errorf("after Reclaim: phase %s", donor.Phase())
	}
	if _, err := donor.ShareDataKey(req); err == nil || !strings.Contains(err.Error(), "donor system is not booted") {
		t.Errorf("a reclaimed donor shared its key: %v", err)
	}
}
