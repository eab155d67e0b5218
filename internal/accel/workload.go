package accel

import (
	"encoding/binary"
	"math/rand"
)

// Workload is one ready-to-run job for an accelerator: the kernel, its
// parameter registers, and the plaintext input buffer.
type Workload struct {
	Kernel Kernel
	Params [4]uint64
	Input  []byte
}

// Kernels returns the five benchmark kernels in Table 4 / Table 5 order.
func Kernels() []Kernel {
	return []Kernel{Conv{}, Affine{}, Rendering{}, FaceDetect{}, NNSearch{}}
}

// KernelByName returns the named kernel, or false.
func KernelByName(name string) (Kernel, bool) {
	for _, k := range Kernels() {
		if k.Name() == name {
			return k, true
		}
	}
	return nil, false
}

// GenConv builds a Conv workload over an h x w x c int16 feature map.
func GenConv(h, w, c int, seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	input := make([]byte, h*w*c*2)
	for i := 0; i < len(input); i += 2 {
		binary.LittleEndian.PutUint16(input[i:], uint16(rng.Intn(512)-256))
	}
	return Workload{
		Kernel: Conv{},
		Params: [4]uint64{uint64(h), uint64(w), uint64(c)},
		Input:  input,
	}
}

// GenAffine builds an Affine workload: a w x h gradient-plus-noise image
// warped by a rotation-and-scale matrix.
func GenAffine(w, h int, seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	img := make([]byte, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img[y*w+x] = byte((x+y)/2 + rng.Intn(16))
		}
	}
	// ~0.92 scale with a slight shear, in 16.16 fixed point.
	m := AffineMatrix{
		A11: 60000, A12: 6000,
		A21: -6000, A22: 60000,
		TX: int32(w/16) << 16, TY: int32(h/16) << 16,
	}
	return Workload{Kernel: Affine{}, Params: m.Params(w, h), Input: img}
}

// GenRendering builds a Rendering workload of n random triangles.
func GenRendering(n int, seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	input := make([]byte, n*9)
	rng.Read(input)
	return Workload{Kernel: Rendering{}, Params: [4]uint64{uint64(n)}, Input: input}
}

// GenFaceDetect builds a FaceDetect workload: a w x h noise image with
// `faces` synthetic face patches planted at deterministic positions. The
// patches are built to pass the kernel's cascade at the base window size.
func GenFaceDetect(w, h, faces int, seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	img := make([]byte, w*h)
	for i := range img {
		img[i] = byte(60 + rng.Intn(8)) // flat-ish background
	}
	positions := PlantedFaces(w, h, faces)
	for _, p := range positions {
		plantFace(img, w, p.X, p.Y)
	}
	return Workload{
		Kernel: FaceDetect{},
		Params: [4]uint64{uint64(w)<<32 | uint64(h)},
		Input:  img,
	}
}

// PlantedFaces returns where GenFaceDetect places its synthetic faces.
func PlantedFaces(w, h, faces int) []Detection {
	var out []Detection
	cols := max(1, (w-BaseWindow)/(BaseWindow*2))
	for i := 0; i < faces; i++ {
		x := (i%cols)*BaseWindow*2 + 4
		y := (i/cols)*BaseWindow*2 + 4
		if x+BaseWindow > w || y+BaseWindow > h {
			break
		}
		out = append(out, Detection{X: x, Y: y, Size: BaseWindow})
	}
	return out
}

// plantFace draws a 24x24 patch satisfying the cascade: dark eye band,
// bright nose column, dark mouth band.
func plantFace(img []byte, w, ox, oy int) {
	for y := 0; y < BaseWindow; y++ {
		for x := 0; x < BaseWindow; x++ {
			v := 140
			if y >= 2 && y <= 11 {
				v = 90 // eye band
			}
			if x >= 8 && x <= 15 && y >= 6 && y <= 17 {
				v += 30 // nose/center column
			}
			if y >= 14 && y <= 17 && x >= 6 && x <= 17 {
				v -= 40 // mouth band
			}
			img[(oy+y)*w+ox+x] = byte(v)
		}
	}
}

// GenNNSearch builds an NNSearch workload with n targets and m queries in
// d dimensions.
func GenNNSearch(n, m, d int, seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	input := make([]byte, (n+m)*d*4)
	for i := 0; i < (n+m)*d; i++ {
		binary.LittleEndian.PutUint32(input[4*i:], uint32(rng.Int31n(1<<20)-1<<19))
	}
	return Workload{
		Kernel: NNSearch{},
		Params: [4]uint64{uint64(n), uint64(m), uint64(d)},
		Input:  input,
	}
}

// PaperWorkload returns the paper-scale workload for a kernel name
// (Table 4 sizes: Conv with a 256-channel feature map, a 512x512 Affine
// image, a full Rosetta-scale triangle soup, a 320x240 detection frame,
// and a large linear search).
func PaperWorkload(name string, seed int64) (Workload, bool) {
	switch name {
	case "Conv":
		return GenConv(34, 34, 256, seed), true
	case "Affine":
		return GenAffine(512, 512, seed), true
	case "Rendering":
		return GenRendering(3192, seed), true
	case "FaceDetect":
		w := GenFaceDetect(320, 240, 6, seed)
		return w, true
	case "NNSearch":
		return GenNNSearch(8192, 256, 4, seed), true
	}
	return Workload{}, false
}

// TestWorkload returns a small, fast workload for unit tests.
func TestWorkload(name string, seed int64) (Workload, bool) {
	switch name {
	case "Conv":
		return GenConv(8, 8, 4, seed), true
	case "Affine":
		return GenAffine(32, 32, seed), true
	case "Rendering":
		return GenRendering(16, seed), true
	case "FaceDetect":
		return GenFaceDetect(64, 64, 1, seed), true
	case "NNSearch":
		return GenNNSearch(64, 8, 3, seed), true
	}
	return Workload{}, false
}
