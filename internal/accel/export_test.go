package accel

import (
	"encoding/binary"
	"fmt"
)

// CorruptMem models a physical attack on the device DRAM (DMA from a
// hostile peripheral, disturbance errors): it flips a byte *without*
// updating the integrity tree. On an unprotected core the corruption is
// silent; on a protected core the next access detects it.
func (c *Core) CorruptMem(addr uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if addr >= MemBytes {
		return fmt.Errorf("%w: corrupt at %d", ErrMemRange, addr)
	}
	c.grow(addr + 1)
	c.mem[addr] ^= 0xFF
	return nil
}

// Runs returns how many kernel executions completed (successfully or not).
func (c *Core) Runs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs
}

// Identity returns the identity transform.
func Identity() AffineMatrix {
	one := int32(1 << 16)
	return AffineMatrix{A11: one, A22: one}
}

// RenderRef is the reference rasteriser shared with the CPU baseline:
// orthographic projection (drop z), bounding-box rasterisation with edge
// functions, per-pixel barycentric z interpolation, and a z-buffer that
// keeps the largest z (nearest surface).
func RenderRef(tris []Triangle) []byte {
	fb := make([]byte, FrameDim*FrameDim)
	renderInto(fb, tris)
	return fb
}

// DecodeIndices parses NNSearch output into query→target indices.
func DecodeIndices(out []byte) ([]int, error) {
	if len(out)%4 != 0 {
		return nil, fmt.Errorf("accel: NNSearch output %d bytes not a multiple of 4", len(out))
	}
	idx := make([]int, len(out)/4)
	for i := range idx {
		idx[i] = int(binary.LittleEndian.Uint32(out[4*i:]))
	}
	return idx, nil
}

// DecodeActivations parses Conv output into int32 activations.
func DecodeActivations(out []byte) ([]int32, error) {
	if len(out)%4 != 0 {
		return nil, fmt.Errorf("accel: Conv output %d bytes not a multiple of 4", len(out))
	}
	acts := make([]int32, len(out)/4)
	for i := range acts {
		acts[i] = int32(binary.LittleEndian.Uint32(out[4*i:]))
	}
	return acts, nil
}
