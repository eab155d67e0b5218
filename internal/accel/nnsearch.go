package accel

import (
	"encoding/binary"
	"fmt"

	"salus/internal/netlist"
)

// NNSearch is the nearest-neighbour linear-search benchmark (Table 4, from
// the Xilinx SDAccel examples): for every query point it scans all targets
// and reports the index of the closest one under squared Euclidean
// distance. In TEE mode the input targets and queries are encrypted; the
// index list stays plaintext.
//
// Input layout: N*D int32 target coordinates, then M*D int32 query
// coordinates, little-endian.
// Params: [0]=N (targets), [1]=M (queries), [2]=D (dimensions).
// Output layout: M uint32 indices.
type NNSearch struct{}

// Name implements Kernel.
func (NNSearch) Name() string { return "NNSearch" }

// EncryptOutput implements Kernel: indices stay plaintext (Table 4).
func (NNSearch) EncryptOutput() bool { return false }

// Module implements Kernel with the Table 5 utilisation row.
func (NNSearch) Module() netlist.ModuleSpec {
	return netlist.ModuleSpec{
		Name: "NNSearch",
		Res:  netlist.Resources{LUT: 49069, Register: 42568, BRAM: 122},
		Cells: []netlist.BRAMCell{
			{Name: "target_cache"},
		},
	}
}

// OutputCap implements Kernel: M uint32 indices.
func (NNSearch) OutputCap(params [4]uint64, _ int) int {
	return capOf(4, max(int(params[1]), 0))
}

// Compute implements Kernel.
func (k NNSearch) Compute(params [4]uint64, input []byte) ([]byte, error) {
	return k.AppendCompute(nil, params, input)
}

// AppendCompute implements Kernel.
func (NNSearch) AppendCompute(dst []byte, params [4]uint64, input []byte) ([]byte, error) {
	n, m, d := int(params[0]), int(params[1]), int(params[2])
	if n < 1 || m < 0 || d < 1 {
		return nil, fmt.Errorf("accel: NNSearch: bad shape n=%d m=%d d=%d", n, m, d)
	}
	if want, ok := sizeOf(n+m, d, 4); !ok || len(input) != want {
		return nil, fmt.Errorf("accel: NNSearch: input %d bytes, want (%d+%d)×%d int32 values", len(input), n, m, d)
	}
	pts := make([]int32, (n+m)*d)
	for i := range pts {
		pts[i] = int32(binary.LittleEndian.Uint32(input[4*i:]))
	}
	idx := NNSearchRef(pts[:n*d], pts[n*d:], n, m, d)
	dst, out := extend(dst, 4*m)
	for i, v := range idx {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return dst, nil
}

// NNSearchRef is the reference linear search shared with the CPU baseline.
// Ties break toward the lower index, matching a sequential hardware scan.
func NNSearchRef(targets, queries []int32, n, m, d int) []int {
	out := make([]int, m)
	for q := 0; q < m; q++ {
		qv := queries[q*d : (q+1)*d]
		best, bestDist := 0, int64(1)<<62
		for t := 0; t < n; t++ {
			tv := targets[t*d : (t+1)*d]
			var dist int64
			for k := 0; k < d; k++ {
				dd := int64(qv[k]) - int64(tv[k])
				dist += dd * dd
			}
			if dist < bestDist {
				best, bestDist = t, dist
			}
		}
		out[q] = best
	}
	return out
}
