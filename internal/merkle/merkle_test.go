package merkle

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func mem(n int) []byte {
	m := make([]byte, n)
	for i := range m {
		m[i] = byte(i * 7)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 64); err == nil {
		t.Error("accepted empty memory")
	}
	if _, err := New(make([]byte, 100), 64); err == nil {
		t.Error("accepted non-multiple length")
	}
	if _, err := New(make([]byte, 64), 0); err == nil {
		t.Error("accepted zero block size")
	}
}

func TestVerifyFreshMemory(t *testing.T) {
	m := mem(64 * 10) // 10 blocks → padded to 16 leaves
	tr, err := New(m, 64)
	if err != nil {
		t.Fatal(err)
	}
	if tr.blocks != 10 {
		t.Errorf("blocks = %d", tr.blocks)
	}
	for i := 0; i < 10; i++ {
		if err := tr.Verify(i, m[i*64:(i+1)*64]); err != nil {
			t.Errorf("fresh block %d: %v", i, err)
		}
	}
}

func TestUpdateThenVerify(t *testing.T) {
	m := mem(64 * 4)
	tr, err := New(m, 64)
	if err != nil {
		t.Fatal(err)
	}
	oldRoot := tr.Root()
	blk := bytes.Repeat([]byte{0xAB}, 64)
	if err := tr.Update(2, blk); err != nil {
		t.Fatal(err)
	}
	if tr.Root() == oldRoot {
		t.Error("root unchanged after update")
	}
	if err := tr.Verify(2, blk); err != nil {
		t.Errorf("updated block rejected: %v", err)
	}
	// The old content no longer verifies.
	if err := tr.Verify(2, m[2*64:3*64]); !errors.Is(err, ErrIntegrity) {
		t.Errorf("stale data accepted: %v", err)
	}
}

func TestDetectsDataTampering(t *testing.T) {
	m := mem(64 * 8)
	tr, err := New(m, 64)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), m[3*64:4*64]...)
	bad[5] ^= 1
	if err := tr.Verify(3, bad); !errors.Is(err, ErrIntegrity) {
		t.Errorf("tampered data accepted: %v", err)
	}
}

func TestDetectsNodeTampering(t *testing.T) {
	// The adversary rewrites off-chip tree nodes to cover a data swap.
	// Verification recomputes block 0's path using the *sibling* nodes, so
	// corrupting any sibling on that path must be caught by the trusted
	// root — while the off-chip root copy itself is irrelevant.
	m := mem(64 * 8)
	tr, err := New(m, 64)
	if err != nil {
		t.Fatal(err)
	}
	nodes := tr.nodes

	// Every sibling on block 0's path: leaf^1, then parents' siblings.
	for n := tr.leafBase; n > 1; n >>= 1 {
		sib := n ^ 1
		saved := nodes[sib]
		nodes[sib][0] ^= 0xFF
		if err := tr.Verify(0, m[:64]); !errors.Is(err, ErrIntegrity) {
			t.Errorf("corrupted sibling node %d accepted: %v", sib, err)
		}
		nodes[sib] = saved
	}

	// Corrupting the off-chip root copy changes nothing: verification ends
	// at the trusted on-chip root.
	nodes[1][0] ^= 0xFF
	if err := tr.Verify(0, m[:64]); err != nil {
		t.Errorf("off-chip root corruption broke a valid verify: %v", err)
	}
	nodes[1][0] ^= 0xFF
}

func TestRangeErrors(t *testing.T) {
	tr, err := New(mem(64*2), 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Update(2, make([]byte, 64)); err == nil {
		t.Error("updated out-of-range block")
	}
	if err := tr.Verify(-1, make([]byte, 64)); err == nil {
		t.Error("verified negative block")
	}
	if err := tr.Update(0, make([]byte, 63)); err == nil {
		t.Error("accepted short block")
	}
	if err := tr.Verify(0, make([]byte, 65)); err == nil {
		t.Error("accepted long block")
	}
}

func TestPropertyUpdateVerifyRoundTrip(t *testing.T) {
	tr, err := New(mem(64*16), 64)
	if err != nil {
		t.Fatal(err)
	}
	f := func(idx uint8, data [64]byte) bool {
		i := int(idx) % 16
		if err := tr.Update(i, data[:]); err != nil {
			return false
		}
		return tr.Verify(i, data[:]) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkProtectedWrite(b *testing.B) {
	tr, err := New(make([]byte, 64*1024), 64)
	if err != nil {
		b.Fatal(err)
	}
	blk := make([]byte, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		if err := tr.Update(i%1024, blk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProtectedRead(b *testing.B) {
	m := make([]byte, 64*1024)
	tr, err := New(m, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		if err := tr.Verify(i%1024, m[(i%1024)*64:(i%1024+1)*64]); err != nil {
			b.Fatal(err)
		}
	}
}
