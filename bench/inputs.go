package main

import (
	"bytes"
	"fmt"

	"salus/internal/accel"
)

// jobInput is one generated job and the output the program must return.
type jobInput struct {
	params [4]uint64
	input  []byte
	golden []byte
}

// jobInputs is a workload's seeded input set. The program only ever sees
// the generated inputs; goldens come from the kernel's reference Compute.
type jobInputs struct {
	kernel string
	jobs   []jobInput
}

// genConvInputs derives n distinct Conv h x w x c inputs from seed.
func genConvInputs(seed int64, n, h, w, c int) (*jobInputs, error) {
	in := &jobInputs{kernel: accel.Conv{}.Name(), jobs: make([]jobInput, n)}
	for i := range in.jobs {
		wl := accel.GenConv(h, w, c, seed*1_000_003+int64(i))
		golden, err := wl.Kernel.Compute(wl.Params, wl.Input)
		if err != nil {
			return nil, fmt.Errorf("golden for input %d: %w", i, err)
		}
		in.jobs[i] = jobInput{params: wl.Params, input: wl.Input, golden: golden}
	}
	return in, nil
}

// at returns input i modulo the set size.
func (in *jobInputs) at(i int) *jobInput { return &in.jobs[i%len(in.jobs)] }

// verify reports whether out is the golden output of job j.
func (j *jobInput) verify(out []byte) bool { return bytes.Equal(out, j.golden) }
