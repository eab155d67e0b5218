package sched

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/core"
	"salus/internal/fpga"
)

// bootBreaker corrupts the encrypted bitstream on its way into the shell,
// so the device's secure boot fails at deployment/attestation.
type bootBreaker struct{}

func (bootBreaker) OnLoad(data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	out := append([]byte(nil), data...)
	out[len(out)/2] ^= 0xFF
	return out
}
func (bootBreaker) OnRequest(req []byte) []byte { return req }
func (bootBreaker) OnResponse(b []byte) []byte  { return b }

// TestBootSharedAtomicOnPartialFailure is the satellite regression for the
// shared-key distribution: when one board of the fleet fails mid-boot, no
// sibling may end up holding the half-distributed key.
func TestBootSharedAtomicOnPartialFailure(t *testing.T) {
	t.Run("parallel", func(t *testing.T) {
		systems := make([]*core.System, 3)
		for i := range systems {
			cfg := core.SystemConfig{
				Kernel: accel.Conv{},
				Seed:   int64(900 + i),
				DNA:    fpga.DNA(fmt.Sprintf("ATOM-%02d", i)),
				Timing: core.FastTiming(),
			}
			if i == 1 {
				cfg.Interceptor = bootBreaker{}
			}
			sys, err := core.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			systems[i] = sys
		}
		if _, err := BootSharedParallel(systems); err == nil {
			t.Fatal("BootSharedParallel succeeded with a sabotaged board")
		}
		// Atomicity: the healthy siblings must not have been provisioned.
		for i, sys := range systems {
			if sys.Booted() {
				t.Errorf("device %d holds the shared key after a partial-failure boot", i)
			}
		}
	})
}

func TestBootSharedParallelPoolServesJobs(t *testing.T) {
	systems := make([]*core.System, 4)
	for i := range systems {
		sys, err := core.NewSystem(core.SystemConfig{
			Kernel: accel.Conv{},
			Seed:   int64(950 + i),
			DNA:    fpga.DNA(fmt.Sprintf("PAR-%02d", i)),
			Timing: core.FastTiming(),
		})
		if err != nil {
			t.Fatal(err)
		}
		systems[i] = sys
	}
	key, err := BootSharedParallel(systems)
	if err != nil {
		t.Fatal(err)
	}
	s := newScheduler(t, systems)
	w := accel.GenConv(4, 4, 1, 7)
	ref, _ := w.Kernel.Compute(w.Params, w.Input)
	out, err := waitOpen(key, submitW(s, key, w))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(ref) {
		t.Error("parallel-booted pool output diverges from reference")
	}
}

// TestDrainUnderLoadLosesNoJobs is the hot-remove acceptance test: remove a
// device mid-stream and assert every accepted job resolves with a result —
// never a lost future — while the pool keeps serving, and that the removed
// board is reclaimed once its last job has resolved.
func TestDrainUnderLoadLosesNoJobs(t *testing.T) {
	systems, key, _ := newFaultyPool(t, 3, 2*time.Millisecond)
	s := newScheduler(t, systems)
	target := systems[0].Device.DNA()

	const jobs = 60
	futs := make([]*Future, 0, jobs)
	var mu sync.Mutex
	var wg sync.WaitGroup
	halfway := make(chan struct{}) // closed once the 30th job is submitted
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < jobs; i++ {
			f := submitW(s, key, accel.GenConv(4, 4, 1, int64(i)))
			mu.Lock()
			futs = append(futs, f)
			mu.Unlock()
			if i+1 == jobs/2 {
				close(halfway)
			}
		}
	}()

	<-halfway // the removal lands mid-stream, deterministically
	if err := s.RemoveRP(target, AllRPs, 10*time.Second); err != nil {
		t.Fatalf("remove: %v", err)
	}
	wg.Wait()

	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Errorf("job %d lost to the removal: %v", i, err)
		}
	}
	if !systems[0].Reclaimed() {
		t.Error("the removed board was not reclaimed")
	}
	if got := len(s.Stats()); got != 2 {
		t.Errorf("pool has %d members after RemoveRP, want 2", got)
	}
	// The removed board lost nothing it accepted, and new work still flows
	// to the survivors.
	if _, err := submitW(s, key, accel.GenConv(4, 4, 1, 99)).Wait(); err != nil {
		t.Errorf("post-remove submission failed: %v", err)
	}
}

func TestDrainAndRemoveUnknownDevice(t *testing.T) {
	systems, _ := newPool(t, 1, accel.Conv{})
	s := newScheduler(t, systems)
	if err := s.RemoveRP("NO-SUCH-DNA", AllRPs, time.Second); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("RemoveRP err = %v, want ErrUnknownDevice", err)
	}
}

// TestBoardVerbsAreTheAllRPsCase: on a 2-RP board, a board is RemoveRP with
// AllRPs, the RP-scoped verb leaves the co-resident partition serving, a
// removal reclaims exactly the partitions it removed, and unknown boards or
// partitions are refused.
func TestBoardVerbsAreTheAllRPsCase(t *testing.T) {
	const dna, wait = fpga.DNA("BOARD-2RP"), 5 * time.Second
	cases := []struct {
		name      string
		op        func(*Scheduler) error
		wantErr   error
		left      int     // registered partitions afterwards
		reclaimed [2]bool // per RP, when the verb returns
	}{
		{"RemoveRP AllRPs", func(s *Scheduler) error { return s.RemoveRP(dna, AllRPs, wait) }, nil, 0, [2]bool{true, true}},
		{"RemoveRP rp1", func(s *Scheduler) error { return s.RemoveRP(dna, 1, wait) }, nil, 1, [2]bool{false, true}},
		{"Remove unknown DNA", func(s *Scheduler) error { return s.RemoveRP("NOPE", AllRPs, wait) }, ErrUnknownDevice, 2, [2]bool{}},
		{"RemoveRP unknown RP", func(s *Scheduler) error { return s.RemoveRP(dna, 7, wait) }, ErrUnknownDevice, 2, [2]bool{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			systems, err := core.NewPartitionSystems(core.SystemConfig{Seed: 812, DNA: dna, Timing: core.FastTiming()},
				[]accel.Kernel{accel.Conv{}, accel.Conv{}})
			if err != nil {
				t.Fatal(err)
			}
			key, err := BootSharedParallel(systems)
			if err != nil {
				t.Fatal(err)
			}
			s := newScheduler(t, systems)
			if _, err := submitW(s, key, accel.GenConv(4, 4, 1, 1)).Wait(); err != nil {
				t.Fatal(err)
			}

			if err := tc.op(s); !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			for _, sys := range systems {
				if got := sys.Reclaimed(); got != tc.reclaimed[sys.Partition()] {
					t.Errorf("rp%d reclaimed = %v, want %v", sys.Partition(), got, tc.reclaimed[sys.Partition()])
				}
			}
			if got := len(s.Stats()); got != tc.left {
				t.Fatalf("%d partitions registered afterwards, want %d", got, tc.left)
			}
			// Whatever the verb left registered keeps serving; nothing else does.
			if _, err := submitW(s, key, accel.GenConv(4, 4, 1, 2)).Wait(); (err == nil) != (tc.left > 0) {
				t.Errorf("with %d partitions registered, submission err = %v", tc.left, err)
			}
		})
	}
}

// TestCloseDuringRedispatchResolvesAllFutures is the satellite regression
// guard: Close racing active redispatch must leave no future unresolved and
// no goroutine stuck.
func TestCloseDuringRedispatchResolvesAllFutures(t *testing.T) {
	systems, key, inj := newFaultyPool(t, 3, time.Millisecond)
	s := New(Config{QueueDepth: 8})
	for _, sys := range systems {
		if err := s.Register(sys); err != nil {
			t.Fatal(err)
		}
	}

	inj.Break() // device 0 faults everything → constant redispatch traffic
	const jobs = 40
	futs := make([]*Future, jobs)
	for i := range futs {
		futs[i] = submitW(s, key, accel.GenConv(4, 4, 1, int64(i)))
	}
	// Wait until the broken device has actually faulted and re-dispatched
	// something, so Close really races in-flight retries; bounded so a
	// regression cannot wedge the test.
	retryDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(retryDeadline) {
		if retried := func() uint64 {
			var n uint64
			for _, ds := range s.Stats() {
				n += ds.Retried
			}
			return n
		}(); retried > 0 {
			break
		}
		//lint:allow test-sleep poll interval inside a deadline-bounded retry loop; correctness comes from the deadline, the sleep only paces probes
		time.Sleep(time.Millisecond)
	}
	s.Close()

	// Every future must resolve promptly — result or deliberate error,
	// never a hang. The timer keeps a regression from wedging go test.
	hang := time.NewTimer(10 * time.Second)
	defer hang.Stop()
	for i, f := range futs {
		select {
		case <-f.Done():
		case <-hang.C:
			t.Fatalf("job %d future never resolved after Close", i)
		}
	}
}

// TestPermanentQuarantineLatches drives a dead board through its probe
// ladder until the breaker latches, then checks it is never routed again.
func TestPermanentQuarantineLatches(t *testing.T) {
	systems, key, inj := newFaultyPool(t, 2, 0)
	s := New(Config{
		QuarantineAfter: 1,
		QuarantineBase:  time.Millisecond,
		QuarantineMax:   time.Millisecond,
		PermanentAfter:  2,
	})
	for _, sys := range systems {
		if err := s.Register(sys); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(s.Close)
	sick := systems[0].Device.DNA()

	inj.Break()
	deadline := time.Now().Add(10 * time.Second)
	for !findStats(t, s, sick).Permanent {
		if time.Now().After(deadline) {
			t.Fatal("breaker never latched permanently")
		}
		if _, err := submitW(s, key, accel.GenConv(4, 4, 1, 1)).Wait(); err != nil {
			t.Fatalf("job lost while the pool degrades: %v", err)
		}
		//lint:allow test-sleep poll interval inside a deadline-bounded loop; the breaker's probe window needs real elapsed time to expire
		time.Sleep(2 * time.Millisecond) // let the probe window expire
	}

	// A latched device is invisible to routing: the healthy sibling takes
	// everything, including after the injector heals (no probe ever fires).
	inj.Heal()
	before := findStats(t, s, sick)
	for i := 0; i < 10; i++ {
		if _, err := submitW(s, key, accel.GenConv(4, 4, 1, int64(i))).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	after := findStats(t, s, sick)
	if after.Completed != before.Completed || after.Failed != before.Failed {
		t.Error("permanently quarantined device still receives work")
	}
	if !after.Permanent || !after.Quarantined {
		t.Error("permanent flag cleared unexpectedly")
	}
}
