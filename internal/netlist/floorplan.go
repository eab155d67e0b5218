package netlist

import (
	"fmt"
	"strings"
)

// RegionKind classifies a floorplan region as static (shell-owned) or
// reconfigurable (CL-owned).
type RegionKind int

// Region kinds.
const (
	Static RegionKind = iota
	Reconfigurable
)

func (k RegionKind) String() string {
	if k == Reconfigurable {
		return "RP"
	}
	return "static"
}

// Region is one named area of the floorplan, pinned to an SLR.
type Region struct {
	Name string
	SLR  int
	Kind RegionKind
}

// Floorplan reserves device area for the shell and the reconfigurable
// partition(s). Per §6.3, the partial bitstream size is fixed at floor
// planning time by the reserved area, independent of the accelerator.
type Floorplan struct {
	Profile DeviceProfile
	Regions []Region
}

// U200Floorplan reproduces Figure 8: the shell's DMA, central interconnect
// and three DDR controllers occupy the static area across the device, and
// one super logic region is reserved as the reconfigurable partition
// hosting the accelerator and the SM logic.
func U200Floorplan() Floorplan {
	return Floorplan{
		Profile: U200,
		Regions: []Region{
			{Name: "DDR-B", SLR: 2, Kind: Static},
			{Name: "DDR-C", SLR: 2, Kind: Static},
			{Name: "Accelerator", SLR: 1, Kind: Reconfigurable},
			{Name: "SM Logic", SLR: 1, Kind: Reconfigurable},
			{Name: "QDMA", SLR: 0, Kind: Static},
			{Name: "Central Interconnect", SLR: 0, Kind: Static},
			{Name: "DDR-A", SLR: 0, Kind: Static},
		},
	}
}

// Validate checks region SLR bounds and that at most one SLR is
// reconfigurable (the paper's prototype reserves exactly one; §4.7 treats
// multiple RPs as an extension handled at a higher layer).
func (f Floorplan) Validate() error {
	rpSLR := -1
	for _, r := range f.Regions {
		if r.SLR < 0 || r.SLR >= f.Profile.SLRs {
			return fmt.Errorf("netlist: region %s on SLR %d outside device (%d SLRs)", r.Name, r.SLR, f.Profile.SLRs)
		}
		if r.Kind == Reconfigurable {
			if rpSLR >= 0 && rpSLR != r.SLR {
				return fmt.Errorf("netlist: reconfigurable regions span SLR %d and %d", rpSLR, r.SLR)
			}
			rpSLR = r.SLR
		}
	}
	if rpSLR < 0 {
		return fmt.Errorf("netlist: floorplan reserves no reconfigurable partition")
	}
	return nil
}

// String renders the floorplan as ASCII art in the spirit of Figure 8.
func (f Floorplan) String() string {
	const width = 44
	var b strings.Builder
	line := "+" + strings.Repeat("-", width) + "+\n"
	for slr := f.Profile.SLRs - 1; slr >= 0; slr-- {
		b.WriteString(line)
		kind := "Static Area (Shell)"
		for _, r := range f.Regions {
			if r.SLR == slr && r.Kind == Reconfigurable {
				kind = "Reconfigurable Partition (CL)"
				break
			}
		}
		fmt.Fprintf(&b, "| SLR%-2d %-*s |\n", slr, width-7, kind)
		for _, r := range f.Regions {
			if r.SLR != slr {
				continue
			}
			fmt.Fprintf(&b, "|   [%-*s] |\n", width-7, r.Name)
		}
	}
	b.WriteString(line)
	return b.String()
}
