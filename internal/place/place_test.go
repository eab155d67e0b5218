package place

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"salus"
	"salus/internal/netlist"
)

// table5 returns the real kernel footprint bins the repo ships.
func table5() []Footprint {
	ks := salus.Kernels()
	fps := make([]Footprint, len(ks))
	for i, k := range ks {
		fps[i] = KernelFootprint(k)
	}
	return fps
}

// TestPackNeverOverflowsBudget is the packer's core safety property:
// random kernel sets drawn from the Table 5 bins either fail with
// ErrUnplaceable or produce a plan where every partition — kernels plus
// one SM logic module — fits the budget, with every kernel placed exactly
// once.
func TestPackNeverOverflowsBudget(t *testing.T) {
	bins := table5()
	budget := netlist.U200.RPResources
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		set := make([]Footprint, n)
		for i := range set {
			set[i] = bins[rng.Intn(len(bins))]
		}
		partitions := 1 + rng.Intn(4)
		plan, err := Pack(set, partitions, budget, rng.Int63())
		if err != nil {
			if !errors.Is(err, ErrUnplaceable) {
				t.Fatalf("trial %d: non-typed error: %v", trial, err)
			}
			continue
		}
		placed := 0
		for _, p := range plan.Partitions {
			placed += len(p.Kernels)
			if !p.Used.Fits(budget) {
				t.Fatalf("trial %d: partition %d overflows budget: used %v > %v", trial, p.Index, p.Used, budget)
			}
			if len(p.Kernels) > 0 {
				var want netlist.Resources
				want = want.Add(SMOverhead())
				for _, name := range p.Kernels {
					for _, f := range set {
						if f.Name == name {
							want = want.Add(f.Res)
							break
						}
					}
				}
				// Used must account the SM overhead exactly once. (Duplicate
				// kernel names in the random set make Used >= the recomputed
				// sum ambiguous, so only check the SM floor.)
				if p.Used.LUT < SMOverhead().LUT {
					t.Fatalf("trial %d: partition %d used %v misses SM overhead", trial, p.Index, p.Used)
				}
			}
		}
		if placed != n {
			t.Fatalf("trial %d: placed %d of %d kernels", trial, placed, n)
		}
	}
}

// TestPackDeterministicForSeed: identical input (including the seed) must
// reproduce the identical plan; a different seed may differ but must stay
// valid.
func TestPackDeterministicForSeed(t *testing.T) {
	set := table5()
	budget := netlist.U200.RPResources
	a, err := Pack(set, 3, budget, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Pack(set, 3, budget, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different plans:\n%+v\n%+v", a, b)
	}
}

// TestPackUnsatisfiableTyped: sets that cannot fit fail with
// ErrUnplaceable — a typed admission verdict, not a panic and not a
// generic error.
func TestPackUnsatisfiableTyped(t *testing.T) {
	huge := Footprint{Name: "monster", Res: netlist.Resources{LUT: 1 << 30, Register: 1, BRAM: 1}}
	if _, err := Pack([]Footprint{huge}, 4, netlist.U200.RPResources, 1); !errors.Is(err, ErrUnplaceable) {
		t.Fatalf("oversized kernel: got %v, want ErrUnplaceable", err)
	}
	// More kernels than the aggregate BRAM allows.
	many := make([]Footprint, 0, 12)
	for i := 0; i < 12; i++ {
		many = append(many, Footprint{Name: "affine", Res: netlist.Resources{LUT: 32014, Register: 36382, BRAM: 543}})
	}
	if _, err := Pack(many, 2, netlist.U200.RPResources, 1); !errors.Is(err, ErrUnplaceable) {
		t.Fatalf("overcommitted set: got %v, want ErrUnplaceable", err)
	}
	// A budget too small for the SM logic itself can never host a tenant.
	if _, err := Pack(nil, 1, netlist.Resources{LUT: 10, Register: 10, BRAM: 1}, 1); !errors.Is(err, ErrUnplaceable) {
		t.Fatalf("tiny budget: got %v, want ErrUnplaceable", err)
	}
	if _, err := Pack(table5(), 0, netlist.U200.RPResources, 1); err == nil || errors.Is(err, ErrUnplaceable) {
		t.Fatalf("zero partitions: got %v, want a plain validation error", err)
	}
}

// TestPackDevice exercises the fleet admission check: every Table 5 kernel
// fits one U200 RP alone, and the whole catalogue packs into three.
func TestPackDevice(t *testing.T) {
	for _, f := range table5() {
		plan, err := Pack([]Footprint{f}, 1, netlist.U200.RPResources, 7)
		if err != nil {
			t.Fatalf("kernel %s alone: %v", f.Name, err)
		}
		if got := len(plan.Partitions[0].Kernels); got != 1 {
			t.Fatalf("kernel %s: %d kernels in partition 0", f.Name, got)
		}
	}
	if _, err := Pack(table5(), 3, netlist.U200.RPResources, 7); err != nil {
		t.Fatalf("full catalogue on 3 RPs: %v", err)
	}
}
