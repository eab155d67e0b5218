// Package place is the spatial-sharing placement layer: it packs kernel
// footprints (the Table 5 LUT/Register/BRAM bins carried by each kernel's
// netlist.ModuleSpec) into a device's reconfigurable partitions, so a fleet
// can sell K boards as K×RPs of capacity instead of K job slots.
//
// Each partition hosts one CL design — the packed kernels plus exactly one
// integrated SM logic module (the RoT carrier every partition needs for its
// own sealed channel) — and must fit the per-partition resource budget,
// which in the §4.7 model is one SLR's worth of fabric (the profile's
// RPResources). Packing is deterministic for a fixed seed: the same
// (footprints, partitions, budget, seed) input always yields the same
// plan, so a fleet manager and an auditor replanning from the published
// footprints agree bit for bit on who is co-resident with whom.
package place

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"salus/internal/accel"
	"salus/internal/netlist"
	"salus/internal/smlogic"
)

// ErrUnplaceable reports a kernel set that cannot be packed into the
// requested partitions under the budget. It is a typed verdict, never a
// panic: unsatisfiable demand is an admission decision for the caller
// (reject the tenant, add a board), not a crash.
var ErrUnplaceable = errors.New("place: kernel set does not fit the partition budget")

// Footprint is one kernel's resource demand under a stable name.
type Footprint struct {
	Name string
	Res  netlist.Resources
}

// KernelFootprint reads a kernel's Table 5 bin from its module spec.
func KernelFootprint(k accel.Kernel) Footprint {
	m := k.Module()
	return Footprint{Name: k.Name(), Res: m.Res}
}

// SMOverhead is the per-partition cost of the integrated SM logic: every
// partition's design carries exactly one RoT module regardless of how many
// kernels share the partition.
func SMOverhead() netlist.Resources { return smlogic.Module().Res }

// Partition is one reconfigurable partition's share of a plan.
type Partition struct {
	Index   int
	Kernels []string          // packed kernel names, placement order
	Used    netlist.Resources // kernels + one SM logic module
}

// Plan is a complete placement: every input footprint assigned to exactly
// one partition, every partition within budget.
type Plan struct {
	Partitions []Partition
	Budget     netlist.Resources // per-partition budget the plan honours
	Seed       int64
}

// Pack assigns every footprint to one of partitions bins of per-partition
// budget, charging each non-empty bin one SM logic overhead. The packing
// is first-fit decreasing over a seed-shuffled tie order: footprints sort
// by descending total demand, equals permuted by the seed, so a fixed seed
// reproduces the plan exactly while different seeds model independent
// compiles. Returns ErrUnplaceable (wrapped with the first victim) when
// the set cannot fit.
func Pack(footprints []Footprint, partitions int, budget netlist.Resources, seed int64) (*Plan, error) {
	if partitions < 1 {
		return nil, fmt.Errorf("place: %d partitions requested, need >= 1", partitions)
	}
	sm := SMOverhead()
	if !sm.Fits(budget) {
		return nil, fmt.Errorf("%w: SM logic alone (%v) exceeds the per-partition budget (%v)", ErrUnplaceable, sm, budget)
	}

	// Seeded deterministic order: shuffle first (the seed's only role is
	// breaking ties between equal-demand footprints), then a stable sort by
	// descending demand.
	order := make([]Footprint, len(footprints))
	copy(order, footprints)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	weight := func(r netlist.Resources) int { return r.LUT + r.Register + r.BRAM }
	sort.SliceStable(order, func(i, j int) bool { return weight(order[i].Res) > weight(order[j].Res) })

	plan := &Plan{Budget: budget, Seed: seed, Partitions: make([]Partition, partitions)}
	for i := range plan.Partitions {
		plan.Partitions[i].Index = i
	}
	for _, f := range order {
		placed := false
		for i := range plan.Partitions {
			p := &plan.Partitions[i]
			used := p.Used
			if len(p.Kernels) == 0 {
				used = used.Add(sm)
			}
			if next := used.Add(f.Res); next.Fits(budget) {
				p.Used = next
				p.Kernels = append(p.Kernels, f.Name)
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("%w: %s (%v) fits no partition of %d (budget %v, SM overhead %v)",
				ErrUnplaceable, f.Name, f.Res, partitions, budget, sm)
		}
	}
	return plan, nil
}

// String renders the footprint in Table 5's form, Name:LUT/REG/BRAM.
func (f Footprint) String() string {
	return fmt.Sprintf("%s:%d/%d/%d", f.Name, f.Res.LUT, f.Res.Register, f.Res.BRAM)
}
