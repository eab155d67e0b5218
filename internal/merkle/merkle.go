// Package merkle implements the device-memory integrity protection the
// paper's threat model delegates to the CL developer (§3.1, attack 2: "an
// adversary tampers with the device memory to steal user data or change
// control flow", with the solution pointed at the Bonsai Merkle tree line
// of work [33, 34, 45, 46]).
//
// The model is the classic hardware arrangement: the tree's interior nodes
// live in *untrusted* memory alongside the data; only the root digest is
// held in trusted on-chip storage. Every protected write updates the leaf-
// to-root path; every protected read re-derives the path and compares
// against the trusted root, so any off-chip tampering — data or tree nodes
// — is detected at the next access.
package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrIntegrity reports that a verified read found tampering.
var ErrIntegrity = errors.New("merkle: integrity verification failed")

// Tree protects a fixed-size memory region at block granularity.
type Tree struct {
	blockSize int
	blocks    int
	leafBase  int // index of the first leaf in nodes
	// nodes is the untrusted node store: a flat heap-ordered array,
	// nodes[0] unused, nodes[1] the root position, leaves at the tail.
	// Index 1 is the off-chip *copy* of the root; corrupting it does not
	// help, because verification ends at the trusted on-chip root.
	nodes [][32]byte
	// root is the trusted on-chip copy.
	root [32]byte
}

// New builds a tree over mem (length must be a multiple of blockSize) and
// initialises the trusted root.
func New(mem []byte, blockSize int) (*Tree, error) {
	if blockSize <= 0 || len(mem) == 0 || len(mem)%blockSize != 0 {
		return nil, fmt.Errorf("merkle: memory %d not a positive multiple of block size %d", len(mem), blockSize)
	}
	blocks := len(mem) / blockSize
	// Round leaves up to a power of two for a complete binary tree.
	leaves := 1
	for leaves < blocks {
		leaves <<= 1
	}
	t := &Tree{
		blockSize: blockSize,
		blocks:    blocks,
		leafBase:  leaves,
		nodes:     make([][32]byte, 2*leaves),
	}
	for i := 0; i < blocks; i++ {
		t.nodes[t.leafBase+i] = leafHash(i, mem[i*blockSize:(i+1)*blockSize])
	}
	for i := blocks; i < leaves; i++ {
		t.nodes[t.leafBase+i] = leafHash(i, nil)
	}
	for i := t.leafBase - 1; i >= 1; i-- {
		t.nodes[i] = nodeHash(t.nodes[2*i], t.nodes[2*i+1])
	}
	t.root = t.nodes[1]
	return t, nil
}

// BlockSize returns the protection granularity.
func (t *Tree) BlockSize() int { return t.blockSize }

// Root returns the trusted root digest.
func (t *Tree) Root() [32]byte { return t.root }

func leafHash(idx int, data []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte{0x00})
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(idx))
	h.Write(b[:])
	h.Write(data)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func nodeHash(l, r [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write(l[:])
	h.Write(r[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Update records a write of data to block idx, refreshing the path and the
// trusted root.
func (t *Tree) Update(idx int, data []byte) error {
	if idx < 0 || idx >= t.blocks {
		return fmt.Errorf("merkle: block %d out of range", idx)
	}
	if len(data) != t.blockSize {
		return fmt.Errorf("merkle: update needs exactly %d bytes, got %d", t.blockSize, len(data))
	}
	n := t.leafBase + idx
	t.nodes[n] = leafHash(idx, data)
	for n >>= 1; n >= 1; n >>= 1 {
		t.nodes[n] = nodeHash(t.nodes[2*n], t.nodes[2*n+1])
	}
	t.root = t.nodes[1]
	return nil
}

// Verify checks block idx's data against the trusted root by re-deriving
// the leaf-to-root path from the (untrusted) sibling nodes.
func (t *Tree) Verify(idx int, data []byte) error {
	if idx < 0 || idx >= t.blocks {
		return fmt.Errorf("merkle: block %d out of range", idx)
	}
	if len(data) != t.blockSize {
		return fmt.Errorf("merkle: verify needs exactly %d bytes, got %d", t.blockSize, len(data))
	}
	h := leafHash(idx, data)
	n := t.leafBase + idx
	for n > 1 {
		sib := t.nodes[n^1]
		if n&1 == 0 {
			h = nodeHash(h, sib)
		} else {
			h = nodeHash(sib, h)
		}
		n >>= 1
	}
	if h != t.root {
		return fmt.Errorf("%w: block %d", ErrIntegrity, idx)
	}
	return nil
}
