package perfmodel

import (
	"math"
	"strings"
	"testing"
	"time"

	"salus/internal/accel"
)

func approx(got time.Duration, wantMS float64, tolPct float64) bool {
	w := wantMS * float64(time.Millisecond)
	return math.Abs(float64(got)-w) <= w*tolPct/100
}

func TestPaperAppsComplete(t *testing.T) {
	apps := PaperApps()
	if len(apps) != 5 {
		t.Fatalf("%d apps, want 5", len(apps))
	}
	for _, m := range apps {
		if m.CPUPlain <= 0 || m.FPGAPlain <= 0 || m.InBytes <= 0 {
			t.Errorf("%s: incomplete model %+v", m.Name, m)
		}
		if _, ok := accel.KernelByName(m.Name); !ok {
			t.Errorf("%s: no matching kernel", m.Name)
		}
	}
}

// Table 6's measured values, reproduced within tolerance: the paper's CPU
// TEE slowdowns (1.01x, 4.38x, 3.50x) and FPGA TEE slowdowns (1.00x,
// 1.05x, 1.03x).
func TestTable6PaperRows(t *testing.T) {
	c := DefaultConstants()
	want := map[string]struct {
		cpuPlain, cpuTEE   float64 // ms
		fpgaPlain, fpgaTEE float64
	}{
		"Conv":       {3038.52, 3059.90, 1522.09, 1522.20},
		"Rendering":  {1.24, 5.43, 4.40, 4.63},
		"FaceDetect": {26.69, 93.38, 21.50, 22.05},
	}
	for _, row := range Table6(c) {
		w, ok := want[row.Name]
		if !ok {
			continue
		}
		if !approx(row.CPUPlain, w.cpuPlain, 1) {
			t.Errorf("%s CPU plain = %v, paper %.2f ms", row.Name, row.CPUPlain, w.cpuPlain)
		}
		if !approx(row.CPUTEE, w.cpuTEE, 15) {
			t.Errorf("%s CPU TEE = %v, paper %.2f ms", row.Name, row.CPUTEE, w.cpuTEE)
		}
		if !approx(row.FPGAPlain, w.fpgaPlain, 1) {
			t.Errorf("%s FPGA plain = %v, paper %.2f ms", row.Name, row.FPGAPlain, w.fpgaPlain)
		}
		if !approx(row.FPGATEE, w.fpgaTEE, 15) {
			t.Errorf("%s FPGA TEE = %v, paper %.2f ms", row.Name, row.FPGATEE, w.fpgaTEE)
		}
	}
}

// The shape claims of §6.4: the FPGA TEE's overhead is negligible (at most
// a few percent) while the CPU TEE's can reach several-x; small jobs suffer
// the most on the CPU.
func TestTable6Shape(t *testing.T) {
	rows := Table6(DefaultConstants())
	byName := map[string]Slowdown{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.FPGASlow > 1.10 {
			t.Errorf("%s: FPGA TEE slowdown %.3f, want <= 1.10", r.Name, r.FPGASlow)
		}
		if r.CPUSlowdown < 1.0 {
			t.Errorf("%s: CPU slowdown %.3f < 1", r.Name, r.CPUSlowdown)
		}
		if r.CPUSlowdown < r.FPGASlow {
			t.Errorf("%s: CPU TEE cheaper than FPGA TEE — wrong shape", r.Name)
		}
	}
	if byName["Rendering"].CPUSlowdown < 3 {
		t.Errorf("Rendering CPU slowdown %.2f, want ~4.4 (small jobs suffer)", byName["Rendering"].CPUSlowdown)
	}
	if byName["Conv"].CPUSlowdown > 1.1 {
		t.Errorf("Conv CPU slowdown %.2f, want ~1.01 (compute-bound jobs shrug)", byName["Conv"].CPUSlowdown)
	}
}

// Figure 10's envelope: speedups between 1.17x and 15.64x, with the
// minimum at Rendering and the maximum at the bandwidth-friendly image
// kernel.
func TestFigure10Envelope(t *testing.T) {
	rows := Figure10(DefaultConstants())
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	min, max := rows[0], rows[0]
	for _, r := range rows {
		if r.Speedup < min.Speedup {
			min = r
		}
		if r.Speedup > max.Speedup {
			max = r
		}
	}
	if min.Name != "Rendering" || min.Speedup < 1.0 || min.Speedup > 1.4 {
		t.Errorf("min speedup = %s %.2fx, paper has Rendering ~1.17x", min.Name, min.Speedup)
	}
	if max.Speedup < 14 || max.Speedup > 17.5 {
		t.Errorf("max speedup = %.2fx, paper reports up to 15.64x", max.Speedup)
	}
	// Every benchmark ends up faster on the FPGA TEE.
	for _, r := range rows {
		if r.Speedup <= 1 {
			t.Errorf("%s speedup %.2f <= 1", r.Name, r.Speedup)
		}
	}
}

func TestSpecificSpeedups(t *testing.T) {
	// Derivable directly from Table 6: Conv 2.01x, FaceDetect 4.23x.
	rows := Figure10(DefaultConstants())
	want := map[string][2]float64{
		"Conv":       {1.9, 2.1},
		"FaceDetect": {3.8, 4.7},
	}
	for _, r := range rows {
		if w, ok := want[r.Name]; ok {
			if r.Speedup < w[0] || r.Speedup > w[1] {
				t.Errorf("%s speedup %.2f outside [%.1f, %.1f]", r.Name, r.Speedup, w[0], w[1])
			}
		}
	}
}

func TestTEEMonotonicity(t *testing.T) {
	c := DefaultConstants()
	for _, m := range PaperApps() {
		if CPUTime(m, true, c) <= CPUTime(m, false, c) {
			t.Errorf("%s: CPU TEE not slower than plain", m.Name)
		}
		if FPGATime(m, true, c) <= FPGATime(m, false, c) {
			t.Errorf("%s: FPGA TEE not slower than plain", m.Name)
		}
	}
}

func TestFormatters(t *testing.T) {
	c := DefaultConstants()
	t6 := FormatTable6(Table6(c))
	for _, want := range []string{"Conv", "Rendering", "FaceDetect", "Affine", "NNSearch", "Slow."} {
		if !strings.Contains(t6, want) {
			t.Errorf("Table 6 output missing %q", want)
		}
	}
	f10 := FormatFigure10(Figure10(c))
	if !strings.Contains(f10, "Speedup") || !strings.Contains(f10, "#") {
		t.Errorf("Figure 10 output malformed:\n%s", f10)
	}
}
