// Package bufpool recycles the job path's payload-sized buffers: the rpc
// server's request frames and the enclave's sealed outputs. A buffer lives
// in one of Classes size classes, MinSize << k up to 64 MiB, each a
// sync.Pool, so a 1 KiB sealed output and a 64 MiB frame each take a buffer
// of their own order of size.
//
// Put checks what it can: it accepts only a slice whose capacity is exactly
// a class size, as a buffer from Get always has, so an exact-size
// allocation (a client's response frame) or a sub-slice of a pooled buffer
// is refused unless its capacity happens to be a class size. The rest is
// the caller's promise: it hands back a whole buffer, it reads and writes
// no slice of the buffer once Put returns, and it leaves nothing secret in
// it.
package bufpool

import (
	"math/bits"
	"sync"
)

// The class ladder, MinSize << k for k below Classes. It is fixed: the
// smallest class holds a 2 KiB job's sealed output, the largest an rpc
// frame of rpc.MaxFrame.
const (
	MinSize = 1 << 10
	Classes = 17
	maxSize = MinSize << (Classes - 1)
)

// pools holds one pool per class; each item is a box holding a whole
// buffer of its class's size. boxes holds the emptied boxes Get leaves, so
// that in steady state neither Get nor Put allocates.
var (
	pools [Classes]sync.Pool
	boxes sync.Pool
)

// Poison makes Put overwrite a buffer with 0xA5 before pooling it, so a
// stale alias reads garbage instead of the next owner's bytes. On under the
// race detector; tests of a package that recycles through here may switch
// it on in an init function.
var Poison = raceEnabled

// class returns the smallest class that holds n bytes; for n past maxSize
// it returns Classes.
func class(n int) int {
	if n > maxSize {
		return Classes
	}
	return bits.Len(uint(max(n-1, 0) / MinSize))
}

// Get returns a buffer of length n and the capacity of the smallest class
// that holds it, recycled when its pool has one. Its bytes are whatever
// its last owner left. Past the largest class it is a plain allocation of
// n bytes, which Put refuses.
func Get(n int) []byte {
	k := class(n)
	if k == Classes {
		return make([]byte, n)
	}
	if box, ok := pools[k].Get().(*[]byte); ok {
		b := *box
		*box = nil
		boxes.Put(box)
		return b[:n]
	}
	return make([]byte, n, MinSize<<k)
}

// Put hands b's whole buffer back to its class and reports whether it was
// taken. It refuses any b whose capacity is not exactly a class size.
func Put(b []byte) bool {
	c := cap(b)
	if c < MinSize || c > maxSize || c&(c-1) != 0 {
		return false
	}
	b = b[:c]
	if Poison {
		for i := range b {
			b[i] = 0xA5
		}
	}
	box, _ := boxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b
	pools[class(c)].Put(box)
	return true
}
