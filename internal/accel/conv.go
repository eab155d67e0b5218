package accel

import (
	"encoding/binary"
	"fmt"
	"sync"

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

// convLaneTaps is how many products one 32-bit lane of a packed
// accumulator sums exactly: a product is an int16 times an int8, at most
// 2^22 in magnitude, and 511·2^22 < 2^31.
const convLaneTaps = 511

// Compute keeps the weights of up to 16 channels and a packed-row ring of
// up to 256 values on its stack; a larger shape takes both from one buffer
// of convScratch, as the fabric's Conv keeps its line buffer in BRAM
// rather than building one per job.
const (
	convStackWeights = 9 * 16
	convStackRing    = 256
)

// convScratch recycles the weight-and-ring buffers (*[]int64) of shapes too
// large for the stack. A buffer holds decoded plaintext pixels and the pool
// is shared by every RP and tenant in the process, so releaseScratch clears
// what a job wrote before the buffer goes back.
var convScratch = sync.Pool{New: func() any { return new([]int64) }}

// Compute implements Kernel.
func (k Conv) Compute(params [4]uint64, input []byte) ([]byte, error) {
	return k.AppendCompute(nil, params, input)
}

// AppendCompute implements Kernel. Params: [0]=H, [1]=W, [2]=C. It is the
// reference convolution shared by the accelerator model and the CPU
// baseline: a valid (no padding) 3x3 convolution over all input channels
// into a single output channel. Each output is the exact int64 sum of its
// 9·C products, shifted right by 8 and truncated to int32.
//
// Two outputs share one 64-bit multiply-add. Every input row is decoded
// once into a ring of three packed rows, q[x·C+ch] = in[x][ch] +
// in[x+1][ch]<<32 (the last pixel's high half is 0), so a product q·w with
// a signed weight adds to output x in the low 32 bits and to output x+1 in
// the high 32 bits of one accumulator. A lane is exact for at most
// convLaneTaps (511) products; the accumulators are unpacked into int64
// sums before any lane could take more, so the result equals the plain
// per-output loop for every C, and every C ≤ 56 (9·C ≤ 511 taps) unpacks
// once per output pair. Each weight load feeds two accumulators, four
// outputs.
func (Conv) AppendCompute(dst []byte, params [4]uint64, input []byte) ([]byte, error) {
	h, w, c := int(params[0]), int(params[1]), int(params[2])
	if h < 3 || w < 3 || c < 1 {
		return nil, fmt.Errorf("accel: Conv: bad dimensions %dx%dx%d", h, w, c)
	}
	if want, ok := sizeOf(h, w, c, 2); !ok || len(input) != want {
		return nil, fmt.Errorf("accel: Conv: input %d bytes, want %d×%d×%d int16 values", len(input), h, w, c)
	}
	// For one output pair and one kernel row ky, the 3 taps × C channels
	// are a contiguous [kx][ch] span of a packed row. wt interleaves the
	// three kernel rows' weights: wt[3j+ky] is tap j of row ky's span.
	span, rowLen := 3*c, w*c
	nw, nr := 3*span, 3*rowLen
	var wbuf [convStackWeights]int64
	var rbuf [convStackRing]int64
	var wt, ring []int64
	if nw <= len(wbuf) && nr <= len(rbuf) {
		wt, ring = wbuf[:nw], rbuf[:nr]
	} else {
		box := convScratch.Get().(*[]int64)
		if cap(*box) < nw+nr {
			*box = make([]int64, nw+nr)
		}
		buf := (*box)[:nw+nr]
		defer releaseScratch(box, buf)
		wt, ring = buf[:nw:nw], buf[nw:]
	}
	for ky := 0; ky < 3; ky++ {
		for kx := 0; kx < 3; kx++ {
			for ch := 0; ch < c; ch++ {
				wt[3*(kx*c+ch)+ky] = int64(ConvWeight(ch, ky, kx))
			}
		}
	}
	slot := func(y int) []int64 { return ring[y%3*rowLen : y%3*rowLen+rowLen] }
	packRow(slot(0), input[:2*rowLen], c)
	packRow(slot(1), input[2*rowLen:4*rowLen], c)

	wo := w - 2
	dst, res := extend(dst, 4*(h-2)*wo)
	for y := 0; y < h-2; y++ {
		packRow(slot(y+2), input[2*(y+2)*rowLen:2*(y+3)*rowLen], c)
		convRow(res[4*y*wo:4*(y+1)*wo], wt, slot(y), slot(y+1), slot(y+2), c)
	}
	return dst, nil
}

// releaseScratch zeroes the values a job used of a convScratch buffer and
// gives the buffer back.
func releaseScratch(box *[]int64, used []int64) {
	clear(used)
	convScratch.Put(box)
}

// convRow computes one row of outputs from the three packed input rows
// under it, four outputs (two packed pairs) at a time.
func convRow(out []byte, wt, r0, r1, r2 []int64, c int) {
	wo, span := len(out)/4, len(wt)/3
	for x := 0; x < wo; x += 4 {
		// Pairs at x and x1 give outputs x..x+3. Near the row's end the
		// second pair may not exist: recompute the first and drop it.
		x1 := x + 2
		if x1 >= wo {
			x1 = x
		}
		var a0, a1, s0, s1, s2, s3 int64
		n := 0 // products in each lane of a0, a1 since the last unpack
		for j := 0; j < span; {
			m := min(span-j, (convLaneTaps-n)/3)
			a0, a1 = mac6(a0, a1, wt[3*j:3*(j+m)], r0, r1, r2, x*c+j, x1*c+j)
			j, n = j+m, n+3*m
			if n > convLaneTaps-3 {
				s0, s1 = addLanes(s0, s1, a0)
				s2, s3 = addLanes(s2, s3, a1)
				a0, a1, n = 0, 0, 0
			}
		}
		s0, s1 = addLanes(s0, s1, a0)
		s2, s3 = addLanes(s2, s3, a1)
		for k, v := range [4]int64{s0, s1, s2, s3} {
			if x+k < wo {
				binary.LittleEndian.PutUint32(out[4*(x+k):], uint32(int32(v>>8)))
			}
		}
	}
}

// packRow decodes one input row of little-endian int16 values into packed
// pairs, q[i] = v[i] + v[i+c]<<32 with v[i+c] = 0 past the row's end,
// reading every value once.
func packRow(q []int64, in []byte, c int) {
	in = in[:2*len(q)]
	for i := range q[:c] {
		q[i] = int64(int16(binary.LittleEndian.Uint16(in[2*i:])))
	}
	// Value c+k is the low half of q[c+k] and the high half of q[k]. Each
	// block of four stores its low halves before adding its high halves, so
	// a q[k] that is also this block's q[c+k'] (c < 4) already holds its
	// low half.
	hi, src := q[c:], in[2*c:]
	lo := q[:len(hi)]
	k := 0
	for ; k+4 <= len(hi); k += 4 {
		u := binary.LittleEndian.Uint64(src[2*k:])
		v0, v1, v2, v3 := int64(int16(u)), int64(int16(u>>16)), int64(int16(u>>32)), int64(int16(u>>48))
		h, l := hi[k:k+4:k+4], lo[k:k+4:k+4]
		h[0], h[1], h[2], h[3] = v0, v1, v2, v3
		l[0] += v0 << 32
		l[1] += v1 << 32
		l[2] += v2 << 32
		l[3] += v3 << 32
	}
	for ; k < len(hi); k++ {
		v := int64(int16(binary.LittleEndian.Uint16(src[2*k:])))
		hi[k] = v
		lo[k] += v << 32
	}
}

// mac6 adds to a0 the packed dot product of the interleaved weights w with
// rows r0, r1, r2 from offset p, and to a1 the same from offset q: tap j
// of row k weighs w[3j+k].
func mac6(a0, a1 int64, w, r0, r1, r2 []int64, p, q int) (int64, int64) {
	n := len(w) / 3
	p0, p1, p2 := r0[p:p+n], r1[p:p+n], r2[p:p+n]
	q0, q1, q2 := r0[q:q+n], r1[q:q+n], r2[q:q+n]
	for j := range p0 {
		t := w[3*j : 3*j+3 : 3*j+3]
		a0 += p0[j]*t[0] + p1[j]*t[1] + p2[j]*t[2]
		a1 += q0[j]*t[0] + q1[j]*t[1] + q2[j]*t[2]
	}
	return a0, a1
}

// addLanes unpacks a packed accumulator into its signed low and high lanes
// and adds them to lo and hi.
func addLanes(lo, hi, acc int64) (int64, int64) {
	l := int64(int32(acc))
	return lo + l, hi + (acc-l)>>32
}
