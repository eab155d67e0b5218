package netlist

import (
	"strings"
	"testing"
	"testing/quick"
)

func smModule() ModuleSpec {
	return ModuleSpec{
		Name: "sm_logic",
		Res:  Resources{LUT: 200, Register: 300, BRAM: 4},
		Cells: []BRAMCell{
			{Name: "secrets", Init: []byte{1, 2, 3}},
		},
	}
}

func accelModule() ModuleSpec {
	return ModuleSpec{
		Name: "accel",
		Res:  Resources{LUT: 1000, Register: 2000, BRAM: 8},
		Cells: []BRAMCell{
			{Name: "weights0"},
			{Name: "weights1"},
		},
	}
}

func testDesign() *Design {
	return &Design{Name: "conv_cl", Modules: []ModuleSpec{accelModule(), smModule()}}
}

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{1, 2, 3}
	b := Resources{10, 20, 30}
	got := a.Add(b)
	if got != (Resources{11, 22, 33}) {
		t.Errorf("Add = %v", got)
	}
	if !a.Fits(b) || b.Fits(a) {
		t.Error("Fits wrong")
	}
	u := Resources{50, 25, 0}.Utilization(Resources{100, 100, 100})
	if u[0] != 50 || u[1] != 25 || u[2] != 0 {
		t.Errorf("Utilization = %v", u)
	}
	zero := (Resources{1, 1, 1}).Utilization(Resources{})
	if zero != [3]float64{} {
		t.Errorf("zero-total utilization = %v, want zeros", zero)
	}
}

func TestProfileGeometry(t *testing.T) {
	for _, p := range []DeviceProfile{U200, TestDevice} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.FrameBytes() != p.FrameWords*4 {
			t.Errorf("%s: FrameBytes = %d", p.Name, p.FrameBytes())
		}
		if p.FrameDataBytes() != p.FrameBytes()-4 {
			t.Errorf("%s: FrameDataBytes = %d", p.Name, p.FrameDataBytes())
		}
		if got := p.FramesPerBRAM() * p.FrameDataBytes(); got < BRAMInitBytes {
			t.Errorf("%s: BRAM slot holds %d bytes < %d", p.Name, got, BRAMInitBytes)
		}
	}
}

func TestU200PartialBitstreamScale(t *testing.T) {
	// A one-SLR U200 partial bitstream is tens of MB; the reproduction's
	// Figure 9 shape depends on that scale.
	if mb := U200.RPBytes() / (1 << 20); mb < 20 || mb > 60 {
		t.Errorf("U200 RP volume = %d MiB, want 20-60 MiB", mb)
	}
	if U200.RPResources != (Resources{355040, 710080, 696}) {
		t.Errorf("U200 RP resources = %v, want Table 5 totals", U200.RPResources)
	}
}

func TestModuleValidate(t *testing.T) {
	cases := []struct {
		name string
		m    ModuleSpec
		ok   bool
	}{
		{"valid", smModule(), true},
		{"empty name", ModuleSpec{Res: Resources{BRAM: 1}}, false},
		{"too many cells", ModuleSpec{Name: "m", Res: Resources{BRAM: 0},
			Cells: []BRAMCell{{Name: "a"}}}, false},
		{"dup cells", ModuleSpec{Name: "m", Res: Resources{BRAM: 2},
			Cells: []BRAMCell{{Name: "a"}, {Name: "a"}}}, false},
		{"oversized init", ModuleSpec{Name: "m", Res: Resources{BRAM: 1},
			Cells: []BRAMCell{{Name: "a", Init: make([]byte, BRAMInitBytes+1)}}}, false},
		{"unnamed cell", ModuleSpec{Name: "m", Res: Resources{BRAM: 1},
			Cells: []BRAMCell{{}}}, false},
	}
	for _, tc := range cases {
		if err := tc.m.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestDesignValidate(t *testing.T) {
	d := testDesign()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	dup := &Design{Name: "d", Modules: []ModuleSpec{smModule(), smModule()}}
	if err := dup.Validate(); err == nil {
		t.Error("accepted duplicate module names")
	}
	if err := (&Design{Name: "d"}).Validate(); err == nil {
		t.Error("accepted empty design")
	}
}

func TestImplementPlacesAllCells(t *testing.T) {
	pl, err := Implement(testDesign(), TestDevice, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Cells()) != 3 {
		t.Fatalf("placed %d cells, want 3", len(pl.Cells()))
	}
	seen := make(map[int]bool)
	for _, c := range pl.Cells() {
		if c.FrameCount != TestDevice.FramesPerBRAM() {
			t.Errorf("%s: FrameCount = %d", c.Path, c.FrameCount)
		}
		if c.FrameBase < 0 || c.FrameBase+c.FrameCount > TestDevice.FramesPerSLR {
			t.Errorf("%s: frames [%d,%d) outside RP", c.Path, c.FrameBase, c.FrameBase+c.FrameCount)
		}
		if seen[c.FrameBase] {
			t.Errorf("%s: overlapping placement at %d", c.Path, c.FrameBase)
		}
		seen[c.FrameBase] = true
		if len(c.Init) != BRAMInitBytes {
			t.Errorf("%s: init not zero-extended: %d bytes", c.Path, len(c.Init))
		}
	}
	c, ok := pl.Cell("sm_logic/secrets")
	if !ok {
		t.Fatal("sm_logic/secrets not found")
	}
	if c.Init[0] != 1 || c.Init[2] != 3 || c.Init[3] != 0 {
		t.Errorf("init content wrong: % x", c.Init[:4])
	}
}

func TestImplementDeterministicPerSeed(t *testing.T) {
	a, err := Implement(testDesign(), TestDevice, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Implement(testDesign(), TestDevice, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range a.Cells() {
		if b.Cells()[i].FrameBase != c.FrameBase {
			t.Errorf("same seed produced different placement for %s", c.Path)
		}
	}
}

func TestImplementSeedMovesCells(t *testing.T) {
	// Across many seeds the SM secrets cell must not be pinned — this is
	// the property that lets the SM logic be "freely integrated" (§6.2).
	bases := make(map[int]bool)
	for seed := int64(0); seed < 16; seed++ {
		pl, err := Implement(testDesign(), TestDevice, seed)
		if err != nil {
			t.Fatal(err)
		}
		c, _ := pl.Cell("sm_logic/secrets")
		bases[c.FrameBase] = true
	}
	if len(bases) < 4 {
		t.Errorf("secrets cell landed on only %d distinct bases across 16 seeds", len(bases))
	}
}

func TestImplementRejectsOversizedDesign(t *testing.T) {
	d := &Design{Name: "big", Modules: []ModuleSpec{{
		Name: "huge", Res: Resources{LUT: 1 << 30},
	}}}
	if _, err := Implement(d, TestDevice, 0); err == nil {
		t.Error("accepted design exceeding RP budget")
	}
}

func TestLocation(t *testing.T) {
	pl, err := Implement(testDesign(), TestDevice, 3)
	if err != nil {
		t.Fatal(err)
	}
	loc, ok := pl.Location("sm_logic/secrets")
	if !ok || loc.Path != "sm_logic/secrets" || loc.FrameCount == 0 {
		t.Errorf("Location = %+v, ok=%v", loc, ok)
	}
	if _, ok := pl.Location("nope"); ok {
		t.Error("found nonexistent cell")
	}
}

func TestPropertyPlacementNoOverlap(t *testing.T) {
	f := func(seed int64) bool {
		pl, err := Implement(testDesign(), TestDevice, seed)
		if err != nil {
			return false
		}
		cells := pl.Cells()
		for i := 1; i < len(cells); i++ {
			if cells[i-1].FrameBase+cells[i-1].FrameCount > cells[i].FrameBase {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUtilizationReportTable5(t *testing.T) {
	rep := UtilizationReport(U200, []ModuleSpec{
		{Name: "Conv", Res: Resources{19735, 20169, 329}},
		{Name: "SM Logic", Res: Resources{27667, 29631, 88}},
	})
	for _, want := range []string{"Total CL Resource", "355040", "Conv", "19735", "SM Logic", "13%"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestU200Floorplan(t *testing.T) {
	f := U200Floorplan()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	art := f.String()
	for _, want := range []string{"SM Logic", "Accelerator", "DDR-A", "Central Interconnect", "Reconfigurable"} {
		if !strings.Contains(art, want) {
			t.Errorf("floorplan art missing %q", want)
		}
	}
}

func TestFloorplanValidateErrors(t *testing.T) {
	bad := Floorplan{Profile: TestDevice, Regions: []Region{{Name: "x", SLR: 99, Kind: Reconfigurable}}}
	if err := bad.Validate(); err == nil {
		t.Error("accepted out-of-range SLR")
	}
	noRP := Floorplan{Profile: TestDevice, Regions: []Region{{Name: "x", SLR: 0, Kind: Static}}}
	if err := noRP.Validate(); err == nil {
		t.Error("accepted floorplan without RP")
	}
	split := Floorplan{Profile: TestDevice, Regions: []Region{
		{Name: "a", SLR: 0, Kind: Reconfigurable},
		{Name: "b", SLR: 1, Kind: Reconfigurable},
	}}
	if err := split.Validate(); err == nil {
		t.Error("accepted RP spanning SLRs")
	}
}
