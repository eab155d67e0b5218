package rpc

import (
	"fmt"
	"hash/maphash"
	"strings"
	"sync"
	"testing"
)

// encodeString is one u16-prefixed string as Encoder.String writes it.
func encodeString(s string) []byte {
	var e Encoder
	e.String(s)
	return e.buf
}

// internSlot is the table slot a name lands in.
func internSlot(name string) int {
	return int(maphash.String(internSeed, name) % internSlots)
}

// interned reports whether any slot of the table holds name.
func interned(name string) bool {
	for i := range internTable {
		if p := internTable[i].Load(); p != nil && *p == name {
			return true
		}
	}
	return false
}

// TestInternHitAllocatesNothing: a name already in the table decodes to the
// table's string without an allocation, and the first decode of a new name
// is what stores it.
func TestInternHitAllocatesNothing(t *testing.T) {
	body := encodeString("Conv")
	d := NewDecoder(body)
	if got := d.String(); got != "Conv" || d.Done() != nil {
		t.Fatalf("decoded %q, %v", got, d.Done())
	}
	if !interned("Conv") {
		t.Fatal("a decoded short name was not stored")
	}
	allocs := testing.AllocsPerRun(100, func() {
		d := NewDecoder(body)
		if d.String() != "Conv" {
			t.Fatal("hit decoded the wrong name")
		}
	})
	if allocs != 0 {
		t.Fatalf("decoding an interned name makes %.0f allocations, want 0", allocs)
	}
}

// TestInternDistinctNamesDecodeExactly: ten thousand distinct names, forty
// times the table's slots, each decode to exactly their bytes, first as
// misses that evict one another and then again over the churned table.
func TestInternDistinctNamesDecodeExactly(t *testing.T) {
	const n = 10000
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = encodeString(fmt.Sprintf("tenant-%05d", i))
	}
	for round := 0; round < 2; round++ {
		for i, body := range bodies {
			d := NewDecoder(body)
			if got, want := d.String(), fmt.Sprintf("tenant-%05d", i); got != want || d.Done() != nil {
				t.Fatalf("round %d: decoded %q, want %q (%v)", round, got, want, d.Done())
			}
		}
	}
}

// TestInternLongNameNeverStored: a name over internMaxLen bytes decodes to
// a fresh copy every time and never enters the table, so the table stays
// bounded whatever names a peer sends; one of exactly internMaxLen bytes is
// still stored.
func TestInternLongNameNeverStored(t *testing.T) {
	long := strings.Repeat("k", internMaxLen+1)
	body := encodeString(long)
	allocs := testing.AllocsPerRun(10, func() {
		d := NewDecoder(body)
		if d.String() != long {
			t.Fatal("long name decoded wrong")
		}
	})
	if allocs != 1 {
		t.Fatalf("decoding a %d-byte name makes %.0f allocations, want 1 (its copy)", len(long), allocs)
	}
	if interned(long) {
		t.Fatalf("a %d-byte name was stored in the intern table", len(long))
	}
	edge := strings.Repeat("e", internMaxLen)
	d := NewDecoder(encodeString(edge))
	if d.String() != edge || !interned(edge) {
		t.Fatalf("a %d-byte name was not stored", len(edge))
	}
}

// TestInternSharedSlotUnderConcurrency: decoders on many goroutines, all
// decoding names that land in one slot, evict each other's strings on every
// miss; each must still get exactly its own bytes. It runs under the race
// detector, where a slot's string published without synchronisation would
// be reported.
func TestInternSharedSlotUnderConcurrency(t *testing.T) {
	const names = 4
	var same []string
	for i := 0; len(same) < names; i++ {
		name := fmt.Sprintf("class-%d", i)
		if len(same) == 0 || internSlot(name) == internSlot(same[0]) {
			same = append(same, name)
		}
	}
	const goroutines, iters = 8, 2000
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			bodies := make([][]byte, names)
			for i, name := range same {
				bodies[i] = encodeString(name)
			}
			for i := 0; i < iters; i++ {
				k := (g + i) % names
				d := NewDecoder(bodies[k])
				if got := d.String(); got != same[k] {
					errs <- fmt.Sprintf("goroutine %d decoded %q, want %q", g, got, same[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestViewAliasesTheBody: View returns the string in place, with no copy,
// so it reads whatever the body holds later (the reason a handler must not
// keep one), and a view past the body's end latches the decoder's error.
func TestViewAliasesTheBody(t *testing.T) {
	body := encodeString("session-key-0001")
	var got string
	allocs := testing.AllocsPerRun(10, func() {
		d := NewDecoder(body)
		got = d.View()
	})
	if allocs != 0 {
		t.Fatalf("View makes %.0f allocations, want 0", allocs)
	}
	if got != "session-key-0001" {
		t.Fatalf("View decoded %q", got)
	}
	body[len(body)-1] = '2'
	if got != "session-key-0002" {
		t.Fatalf("View does not alias its body: it reads %q after the body changed", got)
	}
	if interned(got) {
		t.Fatal("View stored its string in the intern table")
	}
	d := NewDecoder(body[:len(body)-1])
	if v := d.View(); v != "" || d.Done() == nil {
		t.Fatalf("a truncated view decoded %q, %v", v, d.Done())
	}
}
