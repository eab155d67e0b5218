package accel

import (
	"bytes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"salus/internal/cryptoutil"
	"salus/internal/netlist"
)

func TestKernelsRegistry(t *testing.T) {
	ks := Kernels()
	if len(ks) != 5 {
		t.Fatalf("have %d kernels, want 5", len(ks))
	}
	want := []string{"Conv", "Affine", "Rendering", "FaceDetect", "NNSearch"}
	for i, k := range ks {
		if k.Name() != want[i] {
			t.Errorf("kernel %d = %s, want %s", i, k.Name(), want[i])
		}
		if k.Module().Res.LUT == 0 {
			t.Errorf("%s has no resource spec", k.Name())
		}
		if err := k.Module().Validate(); err != nil {
			t.Errorf("%s module spec invalid: %v", k.Name(), err)
		}
		if _, ok := KernelByName(k.Name()); !ok {
			t.Errorf("KernelByName(%s) failed", k.Name())
		}
	}
	if _, ok := KernelByName("Nope"); ok {
		t.Error("found nonexistent kernel")
	}
}

func TestTable4EncryptionDirections(t *testing.T) {
	// Table 4: Affine and Rendering encrypt both directions; the others
	// only encrypt inbound traffic.
	wantOut := map[string]bool{
		"Conv": false, "Affine": true, "Rendering": true,
		"FaceDetect": false, "NNSearch": false,
	}
	for _, k := range Kernels() {
		if k.EncryptOutput() != wantOut[k.Name()] {
			t.Errorf("%s EncryptOutput = %v", k.Name(), k.EncryptOutput())
		}
	}
}

func TestConvHandComputed(t *testing.T) {
	// A 3x3 single-channel feature map of one value v: the output is
	// (v × weight sum)>>8. A negative v checks the int16 sign extension.
	var sum int64
	for ky := 0; ky < 3; ky++ {
		for kx := 0; kx < 3; kx++ {
			sum += int64(ConvWeight(0, ky, kx))
		}
	}
	for _, v := range []int16{1, -3} {
		in := make([]byte, 18)
		for i := 0; i < 9; i++ {
			binary.LittleEndian.PutUint16(in[2*i:], uint16(v))
		}
		out, err := Conv{}.Compute([4]uint64{3, 3, 1}, in)
		if err != nil {
			t.Fatal(err)
		}
		want := int32((int64(v) * sum) >> 8)
		if len(out) != 4 || int32(binary.LittleEndian.Uint32(out)) != want {
			t.Errorf("v=%d: Compute = %v, want [%d]", v, out, want)
		}
	}
}

func TestConvComputeShapeAndErrors(t *testing.T) {
	w, _ := TestWorkload("Conv", 1)
	out, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 6*6*4 {
		t.Errorf("output %d bytes, want %d", len(out), 6*6*4)
	}
	if _, err := (Conv{}).Compute([4]uint64{8, 8, 4}, w.Input[:10]); err == nil {
		t.Error("accepted short input")
	}
	if _, err := (Conv{}).Compute([4]uint64{1, 1, 1}, nil); err == nil {
		t.Error("accepted degenerate dimensions")
	}
}

func TestAffineIdentity(t *testing.T) {
	img := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	out := AffineRef(img, 3, 3, Identity())
	if !bytes.Equal(out, img) {
		t.Errorf("identity transform altered image: %v", out)
	}
}

func TestAffineOutOfRangeBlack(t *testing.T) {
	img := bytes.Repeat([]byte{255}, 16)
	m := Identity()
	m.TX = 100 << 16 // shift source far outside
	out := AffineRef(img, 4, 4, m)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("pixel %d = %d, want 0", i, v)
		}
	}
}

func TestAffineComputeMatchesRef(t *testing.T) {
	w, _ := TestWorkload("Affine", 2)
	out, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	var m AffineMatrix
	m.TX, m.TY = unpack(w.Params[1])
	m.A11, m.A12 = unpack(w.Params[2])
	m.A21, m.A22 = unpack(w.Params[3])
	if !bytes.Equal(out, AffineRef(w.Input, 32, 32, m)) {
		t.Error("Compute != AffineRef")
	}
}

func TestRenderSingleTriangle(t *testing.T) {
	tri := Triangle{X: [3]uint8{10, 20, 10}, Y: [3]uint8{10, 10, 20}, Z: [3]uint8{100, 100, 100}}
	fb := RenderRef([]Triangle{tri})
	if fb[12*FrameDim+12] != 100 {
		t.Error("interior pixel not shaded")
	}
	if fb[200*FrameDim+200] != 0 {
		t.Error("background pixel shaded")
	}
}

func TestRenderZBuffer(t *testing.T) {
	near := Triangle{X: [3]uint8{0, 40, 0}, Y: [3]uint8{0, 0, 40}, Z: [3]uint8{200, 200, 200}}
	far := Triangle{X: [3]uint8{0, 40, 0}, Y: [3]uint8{0, 0, 40}, Z: [3]uint8{50, 50, 50}}
	a := RenderRef([]Triangle{near, far})
	b := RenderRef([]Triangle{far, near})
	if !bytes.Equal(a, b) {
		t.Error("z-buffer result depends on draw order")
	}
	if a[5*FrameDim+5] != 200 {
		t.Errorf("pixel = %d, want nearest triangle's z", a[5*FrameDim+5])
	}
}

func TestRenderDegenerateTriangle(t *testing.T) {
	line := Triangle{X: [3]uint8{1, 2, 3}, Y: [3]uint8{1, 2, 3}, Z: [3]uint8{9, 9, 9}}
	fb := RenderRef([]Triangle{line})
	for _, v := range fb {
		if v != 0 {
			t.Fatal("degenerate triangle rasterised")
		}
	}
}

func TestRenderComputeInputValidation(t *testing.T) {
	if _, err := (Rendering{}).Compute([4]uint64{2}, make([]byte, 9)); err == nil {
		t.Error("accepted count/length mismatch")
	}
}

func TestFaceDetectFindsPlantedFaces(t *testing.T) {
	w, _ := TestWorkload("FaceDetect", 3)
	out, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	dets, err := DecodeDetections(out)
	if err != nil {
		t.Fatal(err)
	}
	planted := PlantedFaces(64, 64, 1)
	if len(planted) != 1 {
		t.Fatal("no face planted")
	}
	found := false
	for _, d := range dets {
		dx, dy := d.X-planted[0].X, d.Y-planted[0].Y
		if dx*dx <= 64 && dy*dy <= 64 {
			found = true
		}
	}
	if !found {
		t.Errorf("planted face at %+v not among %d detections %v", planted[0], len(dets), dets)
	}
}

func TestFaceDetectFlatImageNoDetections(t *testing.T) {
	w, h := 48, 48
	img := bytes.Repeat([]byte{128}, w*h)
	if dets := FaceDetectRef(img, w, h); len(dets) != 0 {
		t.Errorf("flat image produced %d detections", len(dets))
	}
}

func TestIntegralImage(t *testing.T) {
	img := []byte{1, 2, 3, 4}
	ii := IntegralImage(img, 2, 2)
	if got := rectSum(ii, 2, 0, 0, 2, 2); got != 10 {
		t.Errorf("full sum = %d, want 10", got)
	}
	if got := rectSum(ii, 2, 1, 0, 1, 2); got != 6 {
		t.Errorf("right column = %d, want 6", got)
	}
}

func TestNNSearchHandComputed(t *testing.T) {
	targets := []int32{0, 0, 10, 10, -5, 5}
	queries := []int32{9, 9, 1, -1}
	got := NNSearchRef(targets, queries, 3, 2, 2)
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("NNSearchRef = %v, want [1 0]", got)
	}
}

func TestPropertyNNSearchOptimal(t *testing.T) {
	f := func(seed int64) bool {
		w := GenNNSearch(32, 4, 3, seed)
		out, err := w.Kernel.Compute(w.Params, w.Input)
		if err != nil {
			return false
		}
		pts := make([]int32, 36*3)
		for i := range pts {
			pts[i] = int32(binary.LittleEndian.Uint32(w.Input[4*i:]))
		}
		targets, queries := pts[:96], pts[96:]
		dist := func(t, q int) int64 {
			var s int64
			for k := 0; k < 3; k++ {
				d := int64(queries[q*3+k]) - int64(targets[t*3+k])
				s += d * d
			}
			return s
		}
		for q := 0; q < 4; q++ {
			best := int(binary.LittleEndian.Uint32(out[4*q:]))
			for tgt := 0; tgt < 32; tgt++ {
				if dist(tgt, q) < dist(best, q) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// runJob drives a Core through the register/memory protocol like a host
// driver would, optionally with the data plane under a data key: the input
// sealed with SealInput, the output checked with DataPlane.OpenOutput.
func runJob(t *testing.T, core *Core, w Workload, key, iv []byte) []byte {
	t.Helper()
	input := w.Input
	outAddr := uint64(len(input) + 64)
	var aead cipher.AEAD
	var job DataJob
	if key != nil {
		var err error
		if aead, err = cryptoutil.NewAEAD(key); err != nil {
			t.Fatal(err)
		}
		outAddr = SealedInLen(uint64(len(input))) + 64
		job = DataJob{IV: JobIV(iv, 0), Params: w.Params, InLen: uint64(len(w.Input)), OutAddr: outAddr,
			OutCap: uint64(w.Kernel.OutputCap(w.Params, len(w.Input)))}
		input = SealInput(aead, &job, w.Input)
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(core.WriteReg(RegKey1, binary.BigEndian.Uint64(key[0:8])))
		must(core.WriteReg(RegKey0, binary.BigEndian.Uint64(key[8:16])))
		must(core.WriteReg(RegIV1, binary.BigEndian.Uint64(iv[0:8])))
		must(core.WriteReg(RegIV0, binary.BigEndian.Uint64(iv[8:16])))
	}
	if err := core.WriteMem(0, input); err != nil {
		t.Fatal(err)
	}
	for reg, v := range map[uint32]uint64{
		RegInAddr: 0, RegInLen: uint64(len(w.Input)), RegOutAddr: outAddr,
		RegParam0: w.Params[0], RegParam1: w.Params[1],
		RegParam2: w.Params[2], RegParam3: w.Params[3],
	} {
		if err := core.WriteReg(reg, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := core.WriteReg(RegCtrl, CtrlStart); err != nil {
		t.Fatal(err)
	}
	status, err := core.ReadReg(RegStatus)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusDone {
		t.Fatalf("status = %d", status)
	}
	n, err := core.ReadReg(RegOutLen)
	if err != nil {
		t.Fatal(err)
	}
	if key == nil {
		out := make([]byte, n)
		if err := core.ReadMem(outAddr, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	sealed := make([]byte, n+TagSize, n+OutputSlack)
	if err := core.ReadMem(outAddr, sealed); err != nil {
		t.Fatal(err)
	}
	var d DataPlane
	out, err := d.OpenOutput(aead, &job, input[len(input)-TagSize:], sealed, w.Kernel.EncryptOutput())
	if err != nil {
		t.Fatalf("output: %v", err)
	}
	return out
}

func TestCoreRunsAllKernelsPlain(t *testing.T) {
	for _, k := range Kernels() {
		w, ok := TestWorkload(k.Name(), 7)
		if !ok {
			t.Fatalf("no test workload for %s", k.Name())
		}
		core := NewCore(k)
		got := runJob(t, core, w, nil, nil)
		want, err := k.Compute(w.Params, w.Input)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: core output differs from direct compute", k.Name())
		}
		if core.Runs() != 1 {
			t.Errorf("%s: runs = %d", k.Name(), core.Runs())
		}
	}
}

func TestCoreRunsAllKernelsEncrypted(t *testing.T) {
	key := cryptoutil.RandomKey(16)
	iv := cryptoutil.RandomKey(16)
	for _, k := range Kernels() {
		w, _ := TestWorkload(k.Name(), 9)
		got := runJob(t, NewCore(k), w, key, iv)
		want, err := k.Compute(w.Params, w.Input)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: TEE-mode output differs from plaintext compute", k.Name())
		}
	}
}

func TestCoreRegisterMapErrors(t *testing.T) {
	core := NewCore(Conv{})
	if err := core.WriteReg(RegStatus, 1); !errors.Is(err, ErrBadReg) {
		t.Errorf("wrote read-only status: %v", err)
	}
	if _, err := core.ReadReg(RegKey0); !errors.Is(err, ErrBadReg) {
		t.Errorf("read write-only key: %v", err)
	}
	if err := core.WriteReg(0xFFFF, 1); !errors.Is(err, ErrBadReg) {
		t.Errorf("wrote unknown register: %v", err)
	}
	if _, err := core.ReadReg(0xFFFF); !errors.Is(err, ErrBadReg) {
		t.Errorf("read unknown register: %v", err)
	}
}

func TestCoreMemoryBounds(t *testing.T) {
	core := NewCore(Conv{})
	if err := core.WriteMem(MemBytes-1, []byte{1, 2}); !errors.Is(err, ErrMemRange) {
		t.Errorf("write past end: %v", err)
	}
	if err := core.ReadMem(MemBytes, make([]byte, 1)); !errors.Is(err, ErrMemRange) {
		t.Errorf("read past end: %v", err)
	}
	if err := core.ReadMem(MemBytes-1, make([]byte, 2)); !errors.Is(err, ErrMemRange) {
		t.Errorf("read straddling the end: %v", err)
	}
}

func TestCoreBadRunSetsErrorStatus(t *testing.T) {
	core := NewCore(Conv{})
	// No input configured: dimensions are zero.
	if err := core.WriteReg(RegCtrl, CtrlStart); err != nil {
		t.Fatal(err)
	}
	status, err := core.ReadReg(RegStatus)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusError {
		t.Errorf("status = %d, want error", status)
	}
}

func TestPaperWorkloadsExist(t *testing.T) {
	for _, k := range Kernels() {
		w, ok := PaperWorkload(k.Name(), 1)
		if !ok || len(w.Input) == 0 {
			t.Errorf("no paper workload for %s", k.Name())
		}
	}
	if _, ok := PaperWorkload("Nope", 1); ok {
		t.Error("found workload for nonexistent kernel")
	}
}

func BenchmarkKernels(b *testing.B) {
	for _, k := range Kernels() {
		w, _ := TestWorkload(k.Name(), 1)
		b.Run(k.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := k.Compute(w.Params, w.Input); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The bulk bench shape, where the kernel's cost shows end to end.
	w := GenConv(256, 256, 8, 1)
	b.Run("ConvBulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := w.Kernel.Compute(w.Params, w.Input); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestOutputDecoders(t *testing.T) {
	w, _ := TestWorkload("NNSearch", 4)
	out, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := DecodeIndices(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 8 {
		t.Errorf("decoded %d indices, want 8", len(idx))
	}
	if _, err := DecodeIndices(out[:len(out)-1]); err == nil {
		t.Error("accepted misaligned index buffer")
	}

	wc, _ := TestWorkload("Conv", 4)
	outC, err := wc.Kernel.Compute(wc.Params, wc.Input)
	if err != nil {
		t.Fatal(err)
	}
	acts, err := DecodeActivations(outC)
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 36 {
		t.Errorf("decoded %d activations, want 36", len(acts))
	}
	if _, err := DecodeActivations(outC[:len(outC)-2]); err == nil {
		t.Error("accepted misaligned activation buffer")
	}
}

func TestRenderZInterpolation(t *testing.T) {
	// A triangle sloping in depth: z=10 at the left edge, z=250 at the
	// right vertex. Interpolated z must increase along x.
	tri := Triangle{X: [3]uint8{0, 100, 0}, Y: [3]uint8{0, 0, 100}, Z: [3]uint8{10, 250, 10}}
	fb := RenderRef([]Triangle{tri})
	left := fb[10*FrameDim+2]
	mid := fb[10*FrameDim+45]
	right := fb[10*FrameDim+85]
	if !(left < mid && mid < right) {
		t.Errorf("z not interpolated along the slope: %d %d %d", left, mid, right)
	}
	if left < 9 || left > 40 {
		t.Errorf("left z = %d, want near the z=10 vertex", left)
	}
}

// echoKernel returns its (decrypted) input unchanged, so a run's output is
// exactly the input the memory-interface engine accepted.
type echoKernel struct{}

func (echoKernel) Name() string               { return "echo" }
func (echoKernel) Module() netlist.ModuleSpec { return netlist.ModuleSpec{} }
func (echoKernel) EncryptOutput() bool        { return false }
func (echoKernel) AppendCompute(dst []byte, _ [4]uint64, in []byte) ([]byte, error) {
	return append(dst, in...), nil
}
func (k echoKernel) Compute(p [4]uint64, in []byte) ([]byte, error) {
	return k.AppendCompute(nil, p, in)
}
func (echoKernel) OutputCap(_ [4]uint64, inLen int) int { return min(inLen, MemBytes) }

// TestKeyRewriteMidSessionUsesNewKey: the engine's expanded key is cached
// per key-register value, not per session. Rewriting the key registers
// between runs, without a new IV, must switch the very next run to the new
// key: it accepts only the input sealed under the new key at the run's
// place in the IV schedule, and its output is that input.
func TestKeyRewriteMidSessionUsesNewKey(t *testing.T) {
	core := NewCore(echoKernel{})
	base := cryptoutil.RandomKey(16)
	for i := 12; i < 16; i++ {
		base[i] = 0
	}
	mem := cryptoutil.RandomKey(200)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for reg, v := range map[uint32]uint64{
		RegIV1: binary.BigEndian.Uint64(base[0:8]), RegIV0: binary.BigEndian.Uint64(base[8:16]),
		RegInAddr: 0, RegInLen: uint64(len(mem)), RegOutAddr: 4096,
	} {
		must(core.WriteReg(reg, v))
	}
	keyA, keyB := cryptoutil.RandomKey(16), cryptoutil.RandomKey(16)
	keyC := append(append([]byte(nil), keyB[:8]...), cryptoutil.RandomKey(8)...) // only RegKey0 differs from B
	for run, step := range []struct {
		name string
		key  []byte
	}{
		{"first key", keyA},
		{"same key again", keyA},
		{"both halves rewritten", keyB},
		{"low half rewritten", keyC},
		{"back to the first key", keyA},
	} {
		aead, err := cryptoutil.NewAEAD(step.key)
		must(err)
		job := DataJob{IV: JobIV(base, uint32(run)), Index: uint32(run), InLen: uint64(len(mem)), OutAddr: 4096,
			OutCap: uint64(len(mem))}
		sealed := SealInput(aead, &job, mem)
		must(core.WriteMem(0, sealed))
		must(core.WriteReg(RegKey1, binary.BigEndian.Uint64(step.key[0:8])))
		must(core.WriteReg(RegKey0, binary.BigEndian.Uint64(step.key[8:16])))
		must(core.WriteReg(RegCtrl, CtrlStart))
		if st, _ := core.ReadReg(RegStatus); st != StatusDone {
			t.Fatalf("run %d (%s): status %d: the input sealed under the key the registers hold was refused", run, step.name, st)
		}
		got := make([]byte, len(mem)+TagSize, len(mem)+OutputSlack)
		must(core.ReadMem(4096, got))
		var d DataPlane
		out, err := d.OpenOutput(aead, &job, sealed[len(sealed)-TagSize:], got, false)
		if err != nil || !bytes.Equal(out, mem) {
			t.Fatalf("run %d (%s): output is not the input under the key the registers hold (%v)", run, step.name, err)
		}
	}
}
