package accel

import (
	"fmt"

	"salus/internal/netlist"
)

// Affine is the image affine-transformation benchmark (Table 4, from the
// Xilinx SDAccel examples): it warps a grayscale image by an affine matrix
// using inverse mapping with nearest-neighbour sampling. In TEE mode both
// the input and the output images are encrypted.
//
// Input layout: W*H grayscale bytes, row-major.
// Params:
//
//	[0] = W<<32 | H
//	[1] = tx<<32 | ty          (int32 values in 16.16 fixed point)
//	[2] = a11<<32 | a12        (int32 values in 16.16 fixed point)
//	[3] = a21<<32 | a22        (int32 values in 16.16 fixed point)
//
// Output layout: W*H grayscale bytes.
type Affine struct{}

// Name implements Kernel.
func (Affine) Name() string { return "Affine" }

// EncryptOutput implements Kernel: both directions are encrypted (Table 4).
func (Affine) EncryptOutput() bool { return true }

// Module implements Kernel with the Table 5 utilisation row.
func (Affine) Module() netlist.ModuleSpec {
	return netlist.ModuleSpec{
		Name: "Affine",
		Res:  netlist.Resources{LUT: 32014, Register: 36382, BRAM: 543},
		Cells: []netlist.BRAMCell{
			{Name: "tile_buffer"},
		},
	}
}

// AffineMatrix is the 16.16 fixed-point inverse-mapping matrix.
type AffineMatrix struct {
	A11, A12, A21, A22 int32 // 16.16
	TX, TY             int32 // 16.16
}

// Params packs the matrix and image size into the parameter registers.
func (m AffineMatrix) Params(w, h int) [4]uint64 {
	pack := func(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }
	return [4]uint64{
		uint64(w)<<32 | uint64(h),
		pack(m.TX, m.TY),
		pack(m.A11, m.A12),
		pack(m.A21, m.A22),
	}
}

func unpack(p uint64) (int32, int32) { return int32(uint32(p >> 32)), int32(uint32(p)) }

// OutputCap implements Kernel: a W*H image.
func (Affine) OutputCap(params [4]uint64, _ int) int {
	return capOf(int(params[0]>>32), int(uint32(params[0])))
}

// Compute implements Kernel.
func (k Affine) Compute(params [4]uint64, input []byte) ([]byte, error) {
	return k.AppendCompute(nil, params, input)
}

// AppendCompute implements Kernel.
func (Affine) AppendCompute(dst []byte, params [4]uint64, input []byte) ([]byte, error) {
	w := int(params[0] >> 32)
	h := int(uint32(params[0]))
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("accel: Affine: bad size %dx%d", w, h)
	}
	if len(input) != w*h {
		return nil, fmt.Errorf("accel: Affine: input %d bytes, want %d", len(input), w*h)
	}
	var m AffineMatrix
	m.TX, m.TY = unpack(params[1])
	m.A11, m.A12 = unpack(params[2])
	m.A21, m.A22 = unpack(params[3])
	dst, out := extend(dst, w*h)
	affineInto(out, input, w, h, m)
	return dst, nil
}

// AffineRef is the reference transform shared with the CPU baseline:
// inverse mapping with nearest-neighbour sampling; out-of-range samples
// produce black pixels.
func AffineRef(img []byte, w, h int, m AffineMatrix) []byte {
	out := make([]byte, w*h)
	affineInto(out, img, w, h, m)
	return out
}

// affineInto writes every pixel of the w*h image out.
func affineInto(out, img []byte, w, h int, m AffineMatrix) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sx := (int64(m.A11)*int64(x) + int64(m.A12)*int64(y) + int64(m.TX)) >> 16
			sy := (int64(m.A21)*int64(x) + int64(m.A22)*int64(y) + int64(m.TY)) >> 16
			var v byte
			if sx >= 0 && sx < int64(w) && sy >= 0 && sy < int64(h) {
				v = img[sy*int64(w)+sx]
			}
			out[y*w+x] = v
		}
	}
}
