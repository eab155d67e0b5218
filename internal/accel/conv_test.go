package accel

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// convReference is the plain per-output Conv loop Compute must reproduce
// byte for byte: every int16 decoded at every tap, one int64 accumulator
// per output, the same validation.
func convReference(params [4]uint64, input []byte) ([]byte, error) {
	h, w, c := int(params[0]), int(params[1]), int(params[2])
	if h < 3 || w < 3 || c < 1 {
		return nil, fmt.Errorf("accel: Conv: bad dimensions %dx%dx%d", h, w, c)
	}
	if want, ok := sizeOf(h, w, c, 2); !ok || len(input) != want {
		return nil, fmt.Errorf("accel: Conv: input %d bytes, want %d×%d×%d int16 values", len(input), h, w, c)
	}
	span := 3 * c
	wt := make([]int64, 3*span)
	for ky := 0; ky < 3; ky++ {
		for kx := 0; kx < 3; kx++ {
			for ch := 0; ch < c; ch++ {
				wt[ky*span+kx*c+ch] = int64(ConvWeight(ch, ky, kx))
			}
		}
	}
	res := make([]byte, 4*(h-2)*(w-2))
	for y := 0; y < h-2; y++ {
		for x := 0; x < w-2; x++ {
			var acc int64
			for ky := 0; ky < 3; ky++ {
				off := 2 * ((y+ky)*w + x) * c
				seg := input[off : off+2*span]
				for j, wv := range wt[ky*span : (ky+1)*span] {
					acc += int64(int16(uint16(seg[2*j])|uint16(seg[2*j+1])<<8)) * wv
				}
			}
			binary.LittleEndian.PutUint32(res[4*(y*(w-2)+x):], uint32(int32(acc>>8)))
		}
	}
	return res, nil
}

// adversarialConvInput is an h x w x c input that drives the first
// output's lane as far as the fixed weights allow: each value takes the
// sign of its tap's weight at full scale, so every product is positive
// and near |w|·2^15. At C = 171 the 1539 products overflow a lane that is
// never unpacked.
func adversarialConvInput(h, w, c int) []byte {
	in := make([]byte, 2*h*w*c)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			for ch := 0; ch < c; ch++ {
				v := uint16(0x7fff)
				if y < 3 && x < 3 && ConvWeight(ch, y, x) < 0 {
					v = 0x8000
				}
				binary.LittleEndian.PutUint16(in[2*((y*w+x)*c+ch):], v)
			}
		}
	}
	return in
}

// FuzzConvMatchesReference: for any dimensions and input, Compute returns
// exactly what convReference returns, and rejects exactly what it rejects.
// The fuzzed bytes are tiled to the size the dimensions call for (so most
// cases run the kernel) and are also passed raw (the validation path). C
// = 56, 57 and 171 straddle the lane-unpack boundary: 504 products per
// output fit one unpack, 513 need two, and 1539 need four.
func FuzzConvMatchesReference(f *testing.F) {
	for _, s := range []struct {
		h, w, c uint16
		in      []byte
	}{
		{3, 3, 1, []byte{1, 0, 0xfd, 0xff}},
		{5, 7, 3, []byte{0x34, 0x12, 0xcd, 0xab, 0, 0x80}},
		{4, 9, 2, []byte{0x00, 0x80}},
		{6, 5, 4, []byte{0xff, 0x7f}},
		{3, 3, 56, adversarialConvInput(3, 3, 56)},
		{3, 4, 57, adversarialConvInput(3, 4, 57)},
		{3, 3, 171, adversarialConvInput(3, 3, 171)},
		{4, 5, 57, []byte{0x00, 0x80}},
		{3, 3, 171, []byte{0xff, 0x7f}},
	} {
		f.Add(s.h, s.w, s.c, s.in)
	}
	f.Fuzz(func(t *testing.T, h, w, c uint16, in []byte) {
		params := [4]uint64{uint64(h), uint64(w), uint64(c)}
		check := func(what string, in []byte) {
			want, wantErr := convReference(params, in)
			got, err := Conv{}.Compute(params, in)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s %dx%dx%d: Compute error %v, reference error %v", what, h, w, c, err, wantErr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %dx%dx%d: Compute output differs from the reference", what, h, w, c)
			}
		}
		check("raw", in)
		// Keep every case cheap: the reference decodes each value 9 times.
		if n := int(h) * int(w) * int(c); n > 0 && n <= 1<<15 && len(in) > 0 {
			tiled := make([]byte, 2*n)
			for i := range tiled {
				tiled[i] = in[i%len(in)]
			}
			check("tiled", tiled)
		}
	})
}

// TestConvGoldenDigest pins Compute's output on the bench's two Conv shapes
// to SHA-256 digests recorded from the plain per-output loop. The bench's
// goldens come from Compute itself, so it cannot catch a wrong kernel.
func TestConvGoldenDigest(t *testing.T) {
	golden := map[string]string{
		"16x16x4/1":   "09076ceb60fb2d8dfa8de71300612686c5d4249bf3443ac397c628e16bc56713",
		"16x16x4/2":   "1dc5e76d7fa81e65f04ef3a0660ac05aa41856a05b708e76cb57a572d99ffd5e",
		"16x16x4/3":   "707179fe0e0f5b3d9c8100ec5f221dd8ec4b617e233a7bc703271ab6f5306781",
		"16x16x4/4":   "034d6628d043c6133faba64efd64a7a104f92c2e0f4c25da7c1f0048aa6f65de",
		"256x256x8/1": "4ebbbd0eb0bd0a743a85954a5566286eba9fa6013faf86bfc50f1b990d6d4ac5",
		"256x256x8/2": "348a1c7f966d9de3978769083f284e66b89f2767eaca1269d15dc3c698918ab5",
		"256x256x8/3": "f341736fb76e93bfd1692a88f8549605549ee4e33e392e7c21cf2bdec5227cf3",
		"256x256x8/4": "c949b2cedd5d561eb0ad715882491f0c6177542fc81005c25364cdd4aec28d0b",
	}
	for _, sh := range [][3]int{{16, 16, 4}, {256, 256, 8}} {
		for s := int64(1); s <= 4; s++ {
			name := fmt.Sprintf("%dx%dx%d/%d", sh[0], sh[1], sh[2], s)
			w := GenConv(sh[0], sh[1], sh[2], s)
			out, err := w.Kernel.Compute(w.Params, w.Input)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sum := sha256.Sum256(out)
			if got := hex.EncodeToString(sum[:]); got != golden[name] {
				t.Errorf("%s: output digest %s, want %s", name, got, golden[name])
			}
		}
	}
}

// TestConvComputeAllocs pins the kernel's allocations on the small bench
// shape: Compute's result is the only one, and AppendCompute into a buffer
// with room for the output makes none; weights and packed rows stay on the
// stack. On the bulk shape, whose 48 KiB ring does not fit the stack, a
// warm AppendCompute makes none either: the ring comes from convScratch.
func TestConvComputeAllocs(t *testing.T) {
	w := GenConv(16, 16, 4, 1)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := w.Kernel.Compute(w.Params, w.Input); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Conv.Compute on 16x16x4 makes %.0f allocations, want 1 (the result)", allocs)
	}
	var dst []byte
	allocs = testing.AllocsPerRun(100, func() {
		var err error
		if dst, err = w.Kernel.AppendCompute(dst[:0], w.Params, w.Input); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm Conv.AppendCompute on 16x16x4 makes %.0f allocations, want 0", allocs)
	}

	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	bulk := GenConv(256, 256, 8, 1)
	dst = nil
	allocs = testing.AllocsPerRun(20, func() {
		var err error
		if dst, err = bulk.Kernel.AppendCompute(dst[:0], bulk.Params, bulk.Input); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm Conv.AppendCompute on 256x256x8 makes %.0f allocations, want 0", allocs)
	}
}

// TestConvScratchReturnsCleared: the pooled ring holds decoded plaintext
// pixels and the pool is shared by every RP and tenant in the process, so
// a buffer taken back out of convScratch after a 256x256x8 job is all
// zeros. The pool may drop what it is given (always possible, and on
// purpose under -race), so the test retries until it gets a job's buffer.
func TestConvScratchReturnsCleared(t *testing.T) {
	w := GenConv(256, 256, 8, 1)
	need := 9*8 + 3*256*8 // weights and three packed rows
	for try := 0; try < 20; try++ {
		if _, err := w.Kernel.Compute(w.Params, w.Input); err != nil {
			t.Fatal(err)
		}
		box := convScratch.Get().(*[]int64)
		buf := (*box)[:cap(*box)]
		if len(buf) < need {
			continue // a fresh buffer: the job's was dropped
		}
		for i, v := range buf {
			if v != 0 {
				t.Fatalf("pooled Conv scratch holds %#x at %d of %d after a job: it was not cleared", v, i, len(buf))
			}
		}
		convScratch.Put(box)
		return
	}
	t.Fatal("convScratch never gave back a job's buffer in 20 tries")
}
