package accel

import (
	"bytes"
	"testing"
)

// FuzzKernelOutputCap: for any parameters and input, every kernel's output
// bound stays inside device memory without panicking, and whenever Compute
// accepts the input its output fits the bound. The host sizes each job's
// device-memory slot by OutputCap, so an output past it would overwrite the
// next job's input.
func FuzzKernelOutputCap(f *testing.F) {
	for _, k := range Kernels() {
		w, _ := TestWorkload(k.Name(), 1)
		f.Add(w.Params[0], w.Params[1], w.Params[2], w.Params[3], w.Input)
	}
	f.Add(uint64(1)<<62, uint64(4), uint64(1), uint64(0), []byte{})
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), make([]byte, 18))
	f.Fuzz(func(t *testing.T, p0, p1, p2, p3 uint64, in []byte) {
		// Keep every Compute cheap: NNSearch is quadratic in its input.
		in = in[:min(len(in), 8192)]
		params := [4]uint64{p0, p1, p2, p3}
		for _, k := range Kernels() {
			limit := k.OutputCap(params, len(in))
			if limit < 0 || limit > MemBytes {
				t.Fatalf("%s: OutputCap(%#x, %d) = %d, outside [0, %d]", k.Name(), params, len(in), limit, MemBytes)
			}
			out, err := k.Compute(params, in)
			if err == nil && len(out) > limit {
				t.Fatalf("%s: Compute(%#x, %d bytes) returned %d bytes, OutputCap %d", k.Name(), params, len(in), len(out), limit)
			}
		}
	})
}

// FuzzKernelAppendCompute: for any parameters and input, every kernel's
// AppendCompute into a reused buffer full of stale 0xA5 bytes returns what
// Compute returns, byte for byte, whether the buffer has room for less
// than, exactly or more than the output, and keeps the bytes dst already
// held. The fabric computes every run into one buffer of its own, so a byte
// a kernel left unwritten would carry the previous run's output into this
// one's.
func FuzzKernelAppendCompute(f *testing.F) {
	for _, k := range Kernels() {
		w, _ := TestWorkload(k.Name(), 1)
		f.Add(w.Params[0], w.Params[1], w.Params[2], w.Params[3], w.Input)
	}
	f.Add(uint64(16), uint64(16), uint64(4), uint64(0), make([]byte, 16*16*4*2))
	f.Add(uint64(3)<<32|3, uint64(0), uint64(1)<<16, uint64(0), make([]byte, 9))
	f.Fuzz(func(t *testing.T, p0, p1, p2, p3 uint64, in []byte) {
		// Keep every Compute cheap: NNSearch is quadratic in its input.
		in = in[:min(len(in), 8192)]
		params := [4]uint64{p0, p1, p2, p3}
		var dst []byte
		for _, k := range Kernels() {
			want, err := k.Compute(params, in)
			if err != nil {
				if _, err := k.AppendCompute(dst[:0], params, in); err == nil {
					t.Fatalf("%s: AppendCompute accepted what Compute refused", k.Name())
				}
				continue
			}
			const prefix = 3
			for _, room := range []int{len(want) / 2, len(want), len(want) + 64} {
				dst = bytes.Repeat([]byte{0xA5}, prefix+room)
				got, err := k.AppendCompute(dst[:0], params, in)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: AppendCompute into room for %d of %d bytes differs from Compute (err %v)", k.Name(), room, len(want), err)
				}
				dst = bytes.Repeat([]byte{0xA5}, prefix+room)
				got, err = k.AppendCompute(dst[:prefix], params, in)
				if err != nil || !bytes.Equal(got[:prefix], dst[:prefix]) || !bytes.Equal(got[prefix:], want) {
					t.Fatalf("%s: AppendCompute behind %d held bytes, room for %d of %d, differs from Compute (err %v)", k.Name(), prefix, room, len(want), err)
				}
			}
		}
	})
}
