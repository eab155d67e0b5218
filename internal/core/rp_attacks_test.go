package core

import (
	"bytes"
	"sync"
	"testing"

	"salus/internal/accel"
	"salus/internal/channel"
	"salus/internal/cryptoutil"
	"salus/internal/manufacturer"
)

// Cross-RP isolation attack suite (§4.7): two tenants co-resident on one
// die, each deployed into its own reconfigurable partition with its own
// sealed register channel, monotonic counter, and key epoch. A malicious
// host (the shell is the adversary here — it sees and can redirect every
// frame) must not be able to move secrets or authority between partitions:
// frames addressed to the wrong RP die at the SM logic, one tenant's keys
// open nothing of the other's, counters never couple, and a reclaimed RP
// leaves no key material behind for its successor's co-residency window.

// newCoResidentPair manufactures one die with two partitions and boots an
// independent tenant into each: separate user programs, separate secure
// boots, and therefore separate (random) data keys. Options apply to the
// shared template (a Recorder installed there snoops both tenants' shells).
func newCoResidentPair(t *testing.T, opts ...func(*SystemConfig)) (a, b *System) {
	t.Helper()
	template := SystemConfig{Seed: 7, DNA: "CORES-1"}
	for _, o := range opts {
		o(&template)
	}
	systems, err := NewPartitionSystems(template, []accel.Kernel{accel.Conv{}, accel.Conv{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range systems {
		if _, err := sys.SecureBoot(); err != nil {
			t.Fatalf("partition %d boot: %v", sys.Partition(), err)
		}
	}
	return systems[0], systems[1]
}

// A sealed register frame the host captured from tenant A's channel is
// rejected when redirected to tenant B's co-resident partition: each RP's
// SM logic holds its own Key_session, so the frame fails authentication no
// matter which shell handle carries it.
func TestCrossRPSealedFrameRejected(t *testing.T) {
	rec, bus := recorded()
	a, b := newCoResidentPair(t, rec)
	w, _ := accel.TestWorkload("Conv", 1)
	if _, err := a.RunJob(w); err != nil {
		t.Fatal(err)
	}
	frame := findFirstSecureFrame(t, bus.Frames()) // only A has run a job

	// The host replays A's frame into B's partition — through B's own shell
	// handle, exactly as a compromised scheduler would.
	resp, err := b.Shell.TransactPartition(b.Partition(), frame)
	if err == nil {
		if _, isErr := channel.DecodeError(resp); !isErr {
			t.Error("tenant A's sealed frame was accepted by tenant B's partition")
		}
	}
	// Same redirection through A's shell handle, mis-addressed at the
	// transport layer: the partition index, not the handle, decides which
	// SM logic verifies the frame.
	resp, err = a.Shell.TransactPartition(b.Partition(), frame)
	if err == nil {
		if _, isErr := channel.DecodeError(resp); !isErr {
			t.Error("mis-addressed sealed frame crossed the partition boundary")
		}
	}
	// A's own channel is untouched by the attempts: the next job succeeds.
	if _, err := a.RunJob(w); err != nil {
		t.Errorf("tenant A's channel broken by cross-RP replay attempts: %v", err)
	}
}

// Tenant A's provisioned data key opens nothing of tenant B's: a job sealed
// under A's key is rejected by B's enclave, and the two tenants' keys are
// genuinely independent secrets.
func TestCrossTenantKeyCannotOpenCoResidentChannel(t *testing.T) {
	a, b := newCoResidentPair(t)
	keyA, err := a.User.DataKey()
	if err != nil {
		t.Fatal(err)
	}
	keyB, err := b.User.DataKey()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(keyA, keyB) {
		t.Fatal("co-resident tenants share a data key")
	}

	w, _ := accel.TestWorkload("Conv", 2)
	sealedA, err := cryptoutil.Seal(keyA, w.Input, []byte("job-input"))
	if err != nil {
		t.Fatal(err)
	}
	// The host routes A's sealed job to B's co-resident partition: B's
	// enclave cannot authenticate it, and no plaintext ever forms.
	if _, err := b.RunJobSealed("Conv", w.Params, sealedA); err == nil {
		t.Error("tenant B's enclave opened a job sealed under tenant A's key")
	}
	// The same ciphertext on its rightful channel runs fine.
	sealedOut, err := a.RunJobSealed("Conv", w.Params, sealedA)
	if err != nil {
		t.Fatalf("tenant A's own sealed job: %v", err)
	}
	ref, _ := w.Kernel.Compute(w.Params, w.Input)
	out, err := cryptoutil.Open(keyA, sealedOut, []byte("job-output"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, ref) {
		t.Error("sealed result diverges from reference")
	}
}

// Per-RP monotonic counters are independent: a flood of jobs advancing
// RP0's counter leaves RP1's live session untouched (including when the two
// tenants run concurrently), and a frame that was valid at some counter
// position on RP0 verifies nowhere on RP1.
func TestPerRPCountersIndependent(t *testing.T) {
	rec, bus := recorded()
	a, b := newCoResidentPair(t, rec)
	w, _ := accel.TestWorkload("Conv", 3)

	// Concurrent tenants on one die: the race detector patrols the shared
	// device while each partition's session advances on its own.
	var wg sync.WaitGroup
	for _, sys := range []*System{a, b} {
		wg.Add(1)
		go func(sys *System) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := sys.RunJob(w); err != nil {
					t.Errorf("partition %d job %d: %v", sys.Partition(), i, err)
					return
				}
			}
		}(sys)
	}
	wg.Wait()

	// Skew the counters: 8 more jobs on RP0 only.
	rp0Only := len(bus.Frames())
	for i := 0; i < 8; i++ {
		if _, err := a.RunJob(w); err != nil {
			t.Fatal(err)
		}
	}
	// RP1's session survives RP0's counter sprint — nothing is shared.
	if _, err := b.RunJob(w); err != nil {
		t.Errorf("RP1's session desynced by RP0's traffic: %v", err)
	}

	// A frame that WAS valid on RP0 (its first secure write of the skew,
	// when only RP0 was running) replays onto RP1 without success: RP1's
	// independent Key_session rejects it.
	frame := findFirstSecureFrame(t, bus.Frames()[rp0Only:])
	resp, err := b.Shell.TransactPartition(b.Partition(), frame)
	if err == nil {
		if _, isErr := channel.DecodeError(resp); !isErr {
			t.Error("RP0's once-valid frame replayed onto RP1")
		}
	}
	// And on RP0 itself the monotonic counter has moved past it.
	resp, err = a.Shell.TransactPartition(a.Partition(), frame)
	if err == nil {
		if _, isErr := channel.DecodeError(resp); !isErr {
			t.Error("RP0 re-accepted its own past frame (counter not monotonic)")
		}
	}
}

// Reclaiming a drained RP zeroizes every copy of the tenant's key material
// in place — host-side session cache, enclave keys — before the partition
// is re-placed, and the successor tenant boots a fresh System on the same
// (device, partition) pair with nothing to inherit.
func TestReclaimZeroizesBeforeReplacement(t *testing.T) {
	mfr, err := manufacturer.New()
	if err != nil {
		t.Fatal(err)
	}
	systems, err := NewPartitionSystems(SystemConfig{
		Seed:         7,
		DNA:          "RECLAIM-1",
		Manufacturer: mfr,
		UserProgram:  []byte("tenant A program"),
	}, []accel.Kernel{accel.Conv{}, accel.Conv{}})
	if err != nil {
		t.Fatal(err)
	}
	a, neighbour := systems[0], systems[1]
	for _, sys := range systems {
		if _, err := sys.SecureBoot(); err != nil {
			t.Fatal(err)
		}
	}
	w, _ := accel.TestWorkload("Conv", 4)
	if _, err := a.RunJob(w); err != nil {
		t.Fatal(err)
	}

	// The attacker holds references into the live key buffers — the memory
	// a sloppy reclaim would hand to the next occupant.
	leakedSess := a.sessKey
	leakedIV := a.sessIV
	if len(leakedSess) == 0 || len(leakedIV) == 0 {
		t.Fatal("no live session to reclaim")
	}

	a.Reclaim()

	for name, leaked := range map[string][]byte{
		"session key": leakedSess, "session IV": leakedIV,
	} {
		for _, by := range leaked {
			if by != 0 {
				t.Errorf("%s survived reclaim in memory", name)
				break
			}
		}
	}
	if a.sessKey != nil || a.sessIV != nil {
		t.Error("reclaimed system still references key material")
	}
	if !a.Reclaimed() {
		t.Error("Reclaimed() false after Reclaim")
	}
	if _, err := a.User.DataKey(); err == nil {
		t.Error("user enclave still serves the data key after reclaim")
	}
	if _, err := a.RunJob(w); err == nil {
		t.Error("reclaimed partition still runs jobs")
	}
	if _, err := a.BootAndQuote(nil); err == nil {
		t.Error("reclaimed system rebooted; re-placement must build a fresh System")
	}

	// Re-placement: the next tenant deploys a fresh System into the SAME
	// partition of the SAME die, boots clean, and computes correctly — while
	// the co-resident neighbour on RP1 never missed a beat.
	successor, err := NewSystem(SystemConfig{
		Kernel:       accel.Conv{},
		Seed:         9,
		Manufacturer: mfr,
		Device:       a.Device,
		Partition:    a.Partition(),
		UserProgram:  []byte("tenant C program"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := successor.SecureBoot(); err != nil {
		t.Fatalf("successor boot on reclaimed partition: %v", err)
	}
	ref, _ := w.Kernel.Compute(w.Params, w.Input)
	out, err := successor.RunJob(w)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, ref) {
		t.Error("successor output diverges from reference")
	}
	if _, err := neighbour.RunJob(w); err != nil {
		t.Errorf("neighbour RP disturbed by reclaim/re-placement: %v", err)
	}
}
