package accel

import "testing"

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
