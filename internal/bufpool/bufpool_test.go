package bufpool

import (
	"bytes"
	"testing"
)

func init() { Poison = true }

// TestClassLadder: every size lands in the smallest class that holds it,
// nothing past the largest class lands in one, and Get's buffer has its
// class's capacity.
func TestClassLadder(t *testing.T) {
	for _, c := range []struct{ n, class int }{
		{0, 0}, {1, 0}, {MinSize, 0}, {MinSize + 1, 1}, {812, 0}, {2076, 2},
		{256 << 10, 8}, {258092, 8}, {256<<10 + 1, 9}, {maxSize, Classes - 1}, {maxSize + 1, Classes},
	} {
		if got := class(c.n); got != c.class {
			t.Errorf("class(%d) = %d, want %d", c.n, got, c.class)
		}
	}
	for _, n := range []int{0, 812, 4096, 258092} {
		b := Get(n)
		if len(b) != n || cap(b) != MinSize<<class(n) {
			t.Errorf("Get(%d): len %d cap %d, want cap %d", n, len(b), cap(b), MinSize<<class(n))
		}
	}
}

// TestPutRefusesForeignBuffers: only a slice whose capacity is a class size
// enters the pool, so a sub-slice of a pooled buffer or an exact-size
// allocation is turned away untouched.
func TestPutRefusesForeignBuffers(t *testing.T) {
	b := Get(812)
	for i := range b {
		b[i] = 7
	}
	for name, s := range map[string][]byte{
		"sub-slice":      b[28:],
		"capped slice":   b[:812:812],
		"exact-size":     make([]byte, 812),
		"nil":            nil,
		"below MinSize":  make([]byte, MinSize/2),
		"not a power":    make([]byte, 3*MinSize),
		"odd of a class": make([]byte, 4*MinSize+1),
	} {
		if Put(s) {
			t.Errorf("%s: Put took a buffer of cap %d", name, cap(s))
		}
	}
	if !bytes.Equal(b, bytes.Repeat([]byte{7}, len(b))) {
		t.Fatal("a refused Put wrote into its buffer")
	}
	if !Put(b[:0]) {
		t.Fatal("Put refused a whole buffer from Get")
	}
}

// TestPutPoisons: a released buffer reads 0xA5 through an alias its last
// owner kept, over its whole capacity.
func TestPutPoisons(t *testing.T) {
	b := Get(3000)
	copy(b, bytes.Repeat([]byte("secret"), 500))
	whole := b[:cap(b)]
	Put(b)
	if !bytes.Equal(whole, bytes.Repeat([]byte{0xA5}, len(whole))) {
		t.Error("a released buffer still holds its bytes")
	}
}

// TestSteadyStateAllocatesNothing: a Get that finds its class stocked and
// the Put that returns it allocate nothing, the box included.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, n := range []int{812, 258092} {
		Put(Get(n))
		if allocs := testing.AllocsPerRun(100, func() { Put(Get(n)) }); allocs != 0 {
			t.Errorf("Get(%d)+Put: %.1f allocations, want 0", n, allocs)
		}
	}
}
