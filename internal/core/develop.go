package core

import (
	"fmt"

	"salus/internal/accel"
	"salus/internal/bitstream"
	"salus/internal/cryptoutil"
	"salus/internal/netlist"
	"salus/internal/smlogic"
)

// CLPackage is what the development phase hands to the deployment phase: a
// compiled partial bitstream, its digest H, and the recorded hierarchical
// location of the SM logic's secret storage (Loc_Keyattest). The package
// contains no secrets — the RoT is injected per deployment.
type CLPackage struct {
	DesignName string
	KernelName string
	LogicID    string
	Encoded    []byte
	Digest     [32]byte
	Loc        netlist.Location
}

// DevelopCL runs the developer flow of §4.2 for a benchmark kernel: build
// the CL design (accelerator + SM logic), implement it for the device
// profile with the given place-and-route seed, generate the partial
// bitstream, and record digest and location. Different seeds model
// independent compiles — the resulting Loc differs, and Salus does not care.
func DevelopCL(k accel.Kernel, profile netlist.DeviceProfile, seed int64) (*CLPackage, error) {
	return developCL(k, profile, seed, smlogic.LogicID(k))
}

func developCL(k accel.Kernel, profile netlist.DeviceProfile, seed int64, logicID string) (*CLPackage, error) {
	designName := k.Name() + "_cl"
	design, err := smlogic.Integrate(designName, k.Module())
	if err != nil {
		return nil, err
	}
	placed, err := netlist.Implement(design, profile, seed)
	if err != nil {
		return nil, fmt.Errorf("core: implementing %s: %w", designName, err)
	}
	im := bitstream.FromPlaced(placed, logicID)
	loc, ok := placed.Location(smlogic.SecretsCellPath)
	if !ok {
		return nil, fmt.Errorf("core: %s missing after implementation", smlogic.SecretsCellPath)
	}
	encoded := im.Encode()
	return &CLPackage{
		DesignName: designName,
		KernelName: k.Name(),
		LogicID:    logicID,
		Encoded:    encoded,
		Digest:     cryptoutil.Digest(encoded),
		Loc:        loc,
	}, nil
}
