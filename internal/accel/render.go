package accel

import (
	"fmt"

	"salus/internal/netlist"
)

// Rendering is the 3-D rendering benchmark from the Rosetta suite
// (Table 4): it projects 3-D triangles onto a 2-D frame buffer with a
// z-buffer test. In TEE mode both the input model and the output image are
// encrypted.
//
// Input layout: N triangles, 9 bytes each — three vertices of (x, y, z)
// coordinates in [0,255], matching Rosetta's 8-bit coordinate space and
// its 256x256 output resolution.
// Params: [0] = N (triangle count).
// Output layout: FrameDim*FrameDim bytes; each pixel holds the z value of
// the front-most triangle covering it (0 if none).
type Rendering struct{}

// FrameDim is the output frame buffer dimension.
const FrameDim = 256

// Name implements Kernel.
func (Rendering) Name() string { return "Rendering" }

// EncryptOutput implements Kernel: both directions are encrypted (Table 4).
func (Rendering) EncryptOutput() bool { return true }

// Module implements Kernel with the Table 5 utilisation row.
func (Rendering) Module() netlist.ModuleSpec {
	return netlist.ModuleSpec{
		Name: "Rendering",
		Res:  netlist.Resources{LUT: 29132, Register: 35731, BRAM: 142},
		Cells: []netlist.BRAMCell{
			{Name: "zbuffer"},
		},
	}
}

// OutputCap implements Kernel: one frame, whatever the triangle count.
func (Rendering) OutputCap([4]uint64, int) int { return FrameDim * FrameDim }

// Triangle is one 3-D triangle in 8-bit coordinates.
type Triangle struct {
	X [3]uint8
	Y [3]uint8
	Z [3]uint8
}

// Compute implements Kernel.
func (k Rendering) Compute(params [4]uint64, input []byte) ([]byte, error) {
	return k.AppendCompute(nil, params, input)
}

// AppendCompute implements Kernel.
func (Rendering) AppendCompute(dst []byte, params [4]uint64, input []byte) ([]byte, error) {
	n := int(params[0])
	if want, ok := sizeOf(n, 9); !ok || len(input) != want {
		return nil, fmt.Errorf("accel: Rendering: %d triangles need 9 bytes each, got %d", n, len(input))
	}
	tris := make([]Triangle, n)
	for i := range tris {
		b := input[i*9:]
		tris[i] = Triangle{
			X: [3]uint8{b[0], b[3], b[6]},
			Y: [3]uint8{b[1], b[4], b[7]},
			Z: [3]uint8{b[2], b[5], b[8]},
		}
	}
	dst, fb := extend(dst, FrameDim*FrameDim)
	renderInto(fb, tris)
	return dst, nil
}

// renderInto clears the frame buffer fb and rasterises tris into it.
func renderInto(fb []byte, tris []Triangle) {
	clear(fb)
	for _, t := range tris {
		rasterize(t, fb)
	}
}

func rasterize(t Triangle, fb []byte) {
	x0, y0 := int(t.X[0]), int(t.Y[0])
	x1, y1 := int(t.X[1]), int(t.Y[1])
	x2, y2 := int(t.X[2]), int(t.Y[2])
	z0, z1, z2 := int64(t.Z[0]), int64(t.Z[1]), int64(t.Z[2])

	minX, maxX := min3(x0, x1, x2), max3(x0, x1, x2)
	minY, maxY := min3(y0, y1, y2), max3(y0, y1, y2)

	area := edge(x0, y0, x1, y1, x2, y2)
	if area == 0 {
		return // degenerate
	}
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			w0 := edge(x1, y1, x2, y2, x, y)
			w1 := edge(x2, y2, x0, y0, x, y)
			w2 := edge(x0, y0, x1, y1, x, y)
			inside := (w0 >= 0 && w1 >= 0 && w2 >= 0) || (w0 <= 0 && w1 <= 0 && w2 <= 0)
			if !inside {
				continue
			}
			// Barycentric z interpolation in integer arithmetic; the
			// weights carry area's sign, which the division removes.
			z := (int64(w0)*z0 + int64(w1)*z1 + int64(w2)*z2) / int64(area)
			if z <= 0 {
				z = 1 // distinguish covered pixels from background
			}
			if z > 255 {
				z = 255
			}
			idx := y*FrameDim + x
			if byte(z) > fb[idx] {
				fb[idx] = byte(z)
			}
		}
	}
}

func edge(ax, ay, bx, by, px, py int) int {
	return (bx-ax)*(py-ay) - (by-ay)*(px-ax)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func max3(a, b, c int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}
