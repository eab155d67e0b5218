package accel

import (
	"encoding/binary"
	"fmt"

	"salus/internal/netlist"
)

// FaceDetect is the Viola-Jones face detection benchmark from the Rosetta
// suite (Table 4). It scans a grayscale image with a sliding window over an
// integral image and evaluates a cascade of Haar-like rectangle features;
// windows passing every stage are reported as detections. In TEE mode only
// the input image is encrypted; the (small) detection list stays plaintext.
//
// Input layout: W*H grayscale bytes, row-major.
// Params: [0] = W<<32 | H.
// Output layout: uint32 count, then count records of (x, y, size) uint32s.
type FaceDetect struct{}

// Name implements Kernel.
func (FaceDetect) Name() string { return "FaceDetect" }

// EncryptOutput implements Kernel: detections stay plaintext (Table 4).
func (FaceDetect) EncryptOutput() bool { return false }

// Module implements Kernel with the Table 5 utilisation row.
func (FaceDetect) Module() netlist.ModuleSpec {
	return netlist.ModuleSpec{
		Name: "FaceDetect",
		Res:  netlist.Resources{LUT: 31956, Register: 36201, BRAM: 62},
		Cells: []netlist.BRAMCell{
			{Name: "cascade_rom"},
		},
	}
}

// Detection is one accepted window.
type Detection struct {
	X, Y, Size int
}

// BaseWindow is the cascade's native window size (as in Viola-Jones).
const BaseWindow = 24

// haarFeature is a two-rectangle Haar-like feature inside the base window:
// value = sum(rectA) - sum(rectB), compared against a threshold scaled by
// the window area.
type haarFeature struct {
	ax, ay, aw, ah int
	bx, by, bw, bh int
	threshold      int64 // per unit window; scaled at evaluation
	above          bool  // pass if value >= threshold (else <)
}

// cascade is a fixed three-stage classifier. The feature geometry follows
// the classic Viola-Jones layout (eye band darker than cheek band, etc.);
// thresholds are deterministic constants chosen so the synthetic workload
// generator can plant positive windows.
var cascade = [][]haarFeature{
	{ // stage 1: horizontal dark/light split (eyes vs cheeks)
		{ax: 2, ay: 2, aw: 20, ah: 10, bx: 2, by: 12, bw: 20, bh: 10, threshold: -12, above: false},
	},
	{ // stage 2: center vs sides (nose bridge brighter)
		{ax: 8, ay: 6, aw: 8, ah: 12, bx: 0, by: 6, bw: 8, bh: 12, threshold: 4, above: true},
		{ax: 8, ay: 6, aw: 8, ah: 12, bx: 16, by: 6, bw: 8, bh: 12, threshold: 4, above: true},
	},
	{ // stage 3: mouth band darker than chin
		{ax: 6, ay: 14, aw: 12, ah: 4, bx: 6, by: 18, bw: 12, bh: 4, threshold: -2, above: false},
	},
}

// OutputCap implements Kernel: the count word and a record for every
// window the scan visits, the most it can accept.
func (FaceDetect) OutputCap(params [4]uint64, _ int) int {
	w, h := int(params[0]>>32), int(uint32(params[0]))
	const most = (MemBytes - 4) / 12 // records that fit beside the count word
	windows := 0
	faceScales(w, h, func(size, stride int) bool {
		windows += ((w-size)/stride + 1) * ((h-size)/stride + 1)
		return windows <= most
	})
	return 4 + 12*min(windows, most)
}

// Compute implements Kernel.
func (k FaceDetect) Compute(params [4]uint64, input []byte) ([]byte, error) {
	return k.AppendCompute(nil, params, input)
}

// AppendCompute implements Kernel.
func (FaceDetect) AppendCompute(dst []byte, params [4]uint64, input []byte) ([]byte, error) {
	w := int(params[0] >> 32)
	h := int(uint32(params[0]))
	if w < BaseWindow || h < BaseWindow {
		return nil, fmt.Errorf("accel: FaceDetect: image %dx%d smaller than window", w, h)
	}
	if len(input) != w*h {
		return nil, fmt.Errorf("accel: FaceDetect: input %d bytes, want %d", len(input), w*h)
	}
	dets := FaceDetectRef(input, w, h)
	dst, out := extend(dst, 4+12*len(dets))
	binary.LittleEndian.PutUint32(out, uint32(len(dets)))
	for i, d := range dets {
		binary.LittleEndian.PutUint32(out[4+12*i:], uint32(d.X))
		binary.LittleEndian.PutUint32(out[8+12*i:], uint32(d.Y))
		binary.LittleEndian.PutUint32(out[12+12*i:], uint32(d.Size))
	}
	return dst, nil
}

// DecodeDetections parses the Compute output.
func DecodeDetections(out []byte) ([]Detection, error) {
	if len(out) < 4 {
		return nil, fmt.Errorf("accel: FaceDetect: short output")
	}
	n := int(binary.LittleEndian.Uint32(out))
	if len(out) != 4+12*n {
		return nil, fmt.Errorf("accel: FaceDetect: output %d bytes for %d detections", len(out), n)
	}
	dets := make([]Detection, n)
	for i := range dets {
		dets[i] = Detection{
			X:    int(binary.LittleEndian.Uint32(out[4+12*i:])),
			Y:    int(binary.LittleEndian.Uint32(out[8+12*i:])),
			Size: int(binary.LittleEndian.Uint32(out[12+12*i:])),
		}
	}
	return dets, nil
}

// FaceDetectRef is the reference detector shared with the CPU baseline:
// integral image, multi-scale sliding window (scale factor 1.25, stride of
// a quarter window), full cascade evaluation.
func FaceDetectRef(img []byte, w, h int) []Detection {
	ii := IntegralImage(img, w, h)
	var dets []Detection
	faceScales(w, h, func(size, stride int) bool {
		for y := 0; y+size <= h; y += stride {
			for x := 0; x+size <= w; x += stride {
				if evalWindow(ii, w, x, y, size) {
					dets = append(dets, Detection{X: x, Y: y, Size: size})
				}
			}
		}
		return true
	})
	return dets
}

// faceScales calls scan with every window size the detector slides over a
// w x h image and the stride between windows at that size, smallest first,
// until scan returns false.
func faceScales(w, h int, scan func(size, stride int) bool) {
	for size := BaseWindow; size <= min(w, h); size = size * 5 / 4 {
		if !scan(size, max(1, size/4)) {
			return
		}
	}
}

// IntegralImage computes the (w+1)x(h+1) summed-area table of img.
func IntegralImage(img []byte, w, h int) []int64 {
	ii := make([]int64, (w+1)*(h+1))
	for y := 1; y <= h; y++ {
		var row int64
		for x := 1; x <= w; x++ {
			row += int64(img[(y-1)*w+x-1])
			ii[y*(w+1)+x] = ii[(y-1)*(w+1)+x] + row
		}
	}
	return ii
}

// rectSum sums pixels in [x,x+rw) x [y,y+rh) via the integral image.
func rectSum(ii []int64, w, x, y, rw, rh int) int64 {
	s := w + 1
	return ii[(y+rh)*s+x+rw] - ii[y*s+x+rw] - ii[(y+rh)*s+x] + ii[y*s+x]
}

func evalWindow(ii []int64, w, x, y, size int) bool {
	scale := size // feature coordinates are in 24ths of the window
	for _, stage := range cascade {
		for _, f := range stage {
			ax, ay := x+f.ax*scale/BaseWindow, y+f.ay*scale/BaseWindow
			aw, ah := f.aw*scale/BaseWindow, f.ah*scale/BaseWindow
			bx, by := x+f.bx*scale/BaseWindow, y+f.by*scale/BaseWindow
			bw, bh := f.bw*scale/BaseWindow, f.bh*scale/BaseWindow
			if aw == 0 || ah == 0 || bw == 0 || bh == 0 {
				return false
			}
			// Normalise sums per pixel (x16 fixed point) so thresholds are
			// scale-independent.
			va := rectSum(ii, w, ax, ay, aw, ah) * 16 / int64(aw*ah)
			vb := rectSum(ii, w, bx, by, bw, bh) * 16 / int64(bw*bh)
			diff := va - vb
			thr := f.threshold * 16
			if f.above && diff < thr {
				return false
			}
			if !f.above && diff >= thr {
				return false
			}
		}
	}
	return true
}
