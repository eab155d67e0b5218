package accel

import (
	"encoding/binary"
	"fmt"

	"salus/internal/netlist"
)

// Conv is the single-convolution-layer benchmark (Table 4: a 3x3xC kernel
// over an input feature map, from the Xilinx SDAccel examples). In TEE mode
// only the input feature maps are encrypted; weights and outputs stay in
// plaintext.
//
// Input layout: H*W*C int16 values, little-endian, indexed [y][x][c].
// Output layout: (H-2)*(W-2) int32 values — one output channel accumulated
// across all input channels with the deterministic weight set below.
type Conv struct{}

// Name implements Kernel.
func (Conv) Name() string { return "Conv" }

// EncryptOutput implements Kernel: Conv leaves outputs in plaintext.
func (Conv) EncryptOutput() bool { return false }

// Module implements Kernel with the Table 5 utilisation row.
func (Conv) Module() netlist.ModuleSpec {
	return netlist.ModuleSpec{
		Name: "Conv",
		Res:  netlist.Resources{LUT: 19735, Register: 20169, BRAM: 329},
		Cells: []netlist.BRAMCell{
			{Name: "line_buffer"},
			{Name: "weight_cache"},
		},
	}
}

// OutputCap implements Kernel: (H-2)*(W-2) int32 values.
func (Conv) OutputCap(params [4]uint64, _ int) int {
	h, w := int(params[0]), int(params[1])
	if h < 3 || w < 3 {
		return 0
	}
	return capOf(4, h-2, w-2)
}

// ConvWeight returns the fixed kernel weight for input channel c and tap
// (ky, kx) — a deterministic pseudo-random signed byte, standing in for
// trained weights (which the paper keeps in plaintext anyway).
func ConvWeight(c, ky, kx int) int32 {
	h := uint32(c*9+ky*3+kx) * 2654435761
	return int32(int8(h >> 24))
}

// Compute implements Kernel. Params: [0]=H, [1]=W, [2]=C. It is the
// reference convolution shared by the accelerator model and the CPU
// baseline: a valid (no padding) 3x3 convolution over all input channels
// into a single output channel, read straight from the little-endian
// input and accumulated into the one exact-size result.
func (Conv) Compute(params [4]uint64, input []byte) ([]byte, error) {
	h, w, c := int(params[0]), int(params[1]), int(params[2])
	if h < 3 || w < 3 || c < 1 {
		return nil, fmt.Errorf("accel: Conv: bad dimensions %dx%dx%d", h, w, c)
	}
	if want, ok := sizeOf(h, w, c, 2); !ok || len(input) != want {
		return nil, fmt.Errorf("accel: Conv: input %d bytes, want %d×%d×%d int16 values", len(input), h, w, c)
	}
	// For one output and one kernel row ky, the 3 taps × C channels are a
	// contiguous [kx][ch] span of the input; wt holds the weights in that
	// order, row by row.
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
