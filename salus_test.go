package salus_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"salus"
)

// TestPublicAPIEndToEnd exercises the README quickstart path through the
// public facade only.
func TestPublicAPIEndToEnd(t *testing.T) {
	sys, err := salus.NewSystem(salus.SystemConfig{
		Kernel: salus.Affine{},
		Timing: salus.FastTiming(),
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := sys.SecureBoot()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Result.Attested {
		t.Fatal("not attested")
	}
	w, ok := salus.TestWorkload("Affine", 3)
	if !ok {
		t.Fatal("no workload")
	}
	out, err := sys.RunJob(w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (salus.Affine{}).Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Error("offloaded output differs from local compute")
	}
}

func TestPublicAPIKernels(t *testing.T) {
	ks := salus.Kernels()
	if len(ks) != 5 {
		t.Fatalf("%d kernels", len(ks))
	}
	for _, k := range ks {
		if _, ok := salus.KernelByName(k.Name()); !ok {
			t.Errorf("KernelByName(%s)", k.Name())
		}
		if _, ok := salus.PaperWorkload(k.Name(), 1); !ok {
			t.Errorf("PaperWorkload(%s)", k.Name())
		}
	}
}

func TestPublicAPIDevelopAndVerify(t *testing.T) {
	pkg, err := salus.DevelopCL(salus.NNSearch{}, salus.TestDevice, 11)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.KernelName != "NNSearch" || len(pkg.Encoded) == 0 {
		t.Errorf("package %+v", pkg)
	}
}

func TestPublicAPIAttackSurface(t *testing.T) {
	evil, err := salus.DevelopCL(salus.Conv{}, salus.TestDevice, 99)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := salus.NewSystem(salus.SystemConfig{
		Kernel:      salus.Conv{},
		Timing:      salus.FastTiming(),
		Interceptor: salus.SubstituteCL{Evil: evil.Encoded},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SecureBoot(); !errors.Is(err, salus.ErrCLAttestation) {
		t.Errorf("substitution: %v", err)
	}
}

func TestPublicAPIExperimentHarnesses(t *testing.T) {
	c := salus.DefaultPerfConstants()
	if got := len(salus.Table6(c)); got != 5 {
		t.Errorf("Table6 rows = %d", got)
	}
	if got := len(salus.Figure10(c)); got != 5 {
		t.Errorf("Figure10 rows = %d", got)
	}
	if !strings.Contains(salus.FormatTable6(salus.Table6(c)), "Conv") {
		t.Error("Table6 format broken")
	}
	if !strings.Contains(salus.FormatFigure10(salus.Figure10(c)), "x") {
		t.Error("Figure10 format broken")
	}
	rows := salus.RunTable3()
	if len(rows) == 0 {
		t.Fatal("no Table3 rows")
	}
	for _, r := range rows {
		if !r.Protected {
			t.Errorf("Table3: %s not protected", r.Attack)
		}
	}
	fp := salus.U200Floorplan()
	if err := fp.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPublicAPIMultiRP(t *testing.T) {
	systems, err := salus.NewMultiRPSystem(salus.TestDevice, "MRP1",
		[]salus.Kernel{salus.Rendering{}, salus.FaceDetect{}}, salus.FastTiming())
	if err != nil {
		t.Fatal(err)
	}
	for i, sys := range systems {
		if _, err := sys.SecureBoot(); err != nil {
			t.Fatalf("partition %d boot: %v", i, err)
		}
		if !sys.SM.Attested() {
			t.Errorf("partition %d not attested", i)
		}
		w, ok := salus.TestWorkload(sys.Package.KernelName, int64(i))
		if !ok {
			t.Fatalf("no test workload for %s", sys.Package.KernelName)
		}
		got, err := sys.RunJob(w)
		if err != nil {
			t.Fatalf("partition %d job: %v", i, err)
		}
		want, err := w.Kernel.Compute(w.Params, w.Input)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("partition %d output diverges from the %s golden", i, sys.Package.KernelName)
		}
	}
	dev := systems[0].Device
	if dev.Loads() != 2 {
		t.Errorf("loads = %d, want 2", dev.Loads())
	}
	cl0, err := dev.CL(0)
	if err != nil {
		t.Fatal(err)
	}
	cl1, err := dev.CL(1)
	if err != nil {
		t.Fatal(err)
	}
	if cl0.LogicID() == cl1.LogicID() {
		t.Error("partitions share logic identity")
	}
}

func TestPublicAPIClientVerification(t *testing.T) {
	sys, err := salus.NewSystem(salus.SystemConfig{Kernel: salus.Conv{}, Timing: salus.FastTiming()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.SecureBoot()
	if err != nil {
		t.Fatal(err)
	}
	v := salus.NewVerifier(sys.Expectations())
	if _, err := v.VerifyRAResponse(rep.Nonce, rep.Quote); err != nil {
		t.Errorf("client re-verification failed: %v", err)
	}
	exp := sys.Expectations()
	exp.DNA = "WRONG"
	if _, err := salus.NewVerifier(exp).VerifyRAResponse(rep.Nonce, rep.Quote); err == nil {
		t.Error("wrong DNA expectation accepted")
	}
}
