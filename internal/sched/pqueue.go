package sched

import (
	"container/heap"
	"strings"
	"sync"
)

// Class is a workload's quality-of-service band. Scheduling is strict
// priority across bands — a device never starts a lower-band job while a
// higher band has work queued — and earliest-deadline-first inside each
// band (jobs without deadlines order by submission). Under overload the
// bands degrade differently: ClassBatch is rejected fast with
// ErrOverloaded when every routable queue is full, while ClassStandard
// and ClassCritical wait (re-routing to whichever device frees space
// first) bounded only by their own deadline or scheduler shutdown.
type Class uint8

const (
	// ClassBatch is best-effort bulk work: first shed under overload,
	// never blocks the submitter.
	ClassBatch Class = iota
	// ClassStandard is what the option-less SubmitSealed rides at.
	ClassStandard
	// ClassCritical is latency-sensitive work that jumps every queue.
	ClassCritical

	numClasses = 3
)

// String returns the class's wire/flag name.
func (c Class) String() string {
	switch c {
	case ClassBatch:
		return "batch"
	case ClassStandard:
		return "standard"
	case ClassCritical:
		return "critical"
	}
	return "critical" // out-of-range clamps high; see clamp
}

// clamp maps out-of-range values to the nearest valid class so a corrupt
// or future wire value cannot index past the band array.
func (c Class) clamp() Class {
	if c >= numClasses {
		return ClassCritical
	}
	return c
}

// ClassByName parses a class's String() form (case-insensitive). The
// empty string selects ClassStandard.
func ClassByName(name string) (Class, bool) {
	switch strings.ToLower(name) {
	case "", "standard":
		return ClassStandard, true
	case "batch":
		return ClassBatch, true
	case "critical":
		return ClassCritical, true
	}
	return ClassStandard, false
}

// jobHeap orders one tenant's share of a band by (deadline, submission
// sequence): EDF with FIFO tie-break, so deadline-free jobs inside a band
// keep the old channel's arrival order.
type jobHeap []*entry

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, k int) bool {
	if h[i].deadlineNs != h[k].deadlineNs {
		return h[i].deadlineNs < h[k].deadlineNs
	}
	return h[i].seq < h[k].seq
}
func (h jobHeap) Swap(i, k int)       { h[i], h[k] = h[k], h[i] }
func (h *jobHeap) Push(x interface{}) { *h = append(*h, x.(*entry)) }
func (h *jobHeap) Pop() interface{} {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

// tband is one priority band's tenant-aware run queue: a per-tenant EDF
// heap plus a weighted round-robin over the tenants that currently have
// work. Strict priority still holds across bands; *within* a band, a
// tenant flooding its own subqueue only lengthens its own line — the WRR
// guarantees every active tenant with weight w is served w jobs out of
// every sum(weights) pops, so the wait for a co-resident tenant's next
// job is bounded by the round, not by the flooder's backlog. Jobs without
// a tenant label share the "" subqueue (weight 1 unless configured), so a
// single-tenant or unlabelled pool degenerates to the band's old pure-EDF
// order.
type tband struct {
	subs    map[string]*jobHeap
	active  []string // tenants with queued work, in WRR order
	rr      int      // index into active of the tenant currently served
	credit  int      // pops remaining in the current tenant's turn
	weights map[string]int
	size    int
}

func (b *tband) weight(tenant string) int {
	if w := b.weights[tenant]; w > 0 {
		return w
	}
	return 1
}

func (b *tband) push(j *entry) {
	if b.subs == nil {
		b.subs = make(map[string]*jobHeap)
	}
	h, ok := b.subs[j.tenant]
	if !ok {
		h = &jobHeap{}
		b.subs[j.tenant] = h
	}
	if h.Len() == 0 {
		b.active = append(b.active, j.tenant)
	}
	heap.Push(h, j)
	b.size++
}

// pop serves the current tenant's earliest deadline, consuming one credit
// of its weighted turn; an exhausted turn or emptied subqueue advances the
// round-robin. Returns nil when the band is empty.
func (b *tband) pop() *entry {
	if b.size == 0 {
		return nil
	}
	if b.rr >= len(b.active) {
		b.rr = 0
	}
	tenant := b.active[b.rr]
	if b.credit <= 0 {
		b.credit = b.weight(tenant)
	}
	h := b.subs[tenant]
	j := heap.Pop(h).(*entry)
	b.size--
	b.credit--
	if h.Len() == 0 {
		// Tenant ran dry mid-turn: retire it from the round; rr now points
		// at the next active tenant (wrapped lazily on the next pop).
		b.active = append(b.active[:b.rr], b.active[b.rr+1:]...)
		b.credit = 0
	} else if b.credit == 0 {
		b.rr++
	}
	return j
}

// pqueue is one device's bounded priority queue: numClasses tenant-aware
// EDF bands popped highest band first. Capacity counts queue entries (a
// batch is one entry, matching the old channel's semantics).
//
// The queue also decides who executes, one entry at a time: the device
// worker through pop, or a waiter through claim, each marking the device
// running until it calls done. notEmpty and space are capacity-1 wakeup
// tokens, not item counts: a worker or an admission waiter that blocks is
// guaranteed a token from the next push, pop, claim or done that could
// unblock it, and stale tokens only cost a spurious rescan.
type pqueue struct {
	mu       sync.Mutex
	bands    [numClasses]tband
	entries  int
	capacity int
	closed   bool
	running  bool // an entry taken by pop or claim has not called done
	notEmpty chan struct{}
	space    chan struct{}
}

func newPQueue(capacity int, weights map[string]int) *pqueue {
	q := &pqueue{
		capacity: capacity,
		notEmpty: make(chan struct{}, 1),
		space:    make(chan struct{}, 1),
	}
	for c := range q.bands {
		q.bands[c].weights = weights
	}
	return q
}

func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// push offers an entry and reports whether the queue took it: not when
// closed, nor — unless force, used by redispatch, whose retry budget is
// already bounded — when at capacity.
func (q *pqueue) push(e *entry, force bool) bool {
	q.mu.Lock()
	if q.closed || (!force && q.entries >= q.capacity) {
		q.mu.Unlock()
		return false
	}
	q.bands[e.class.clamp()].push(e)
	q.entries++
	q.mu.Unlock()
	signal(q.notEmpty)
	return true
}

// pop blocks until the device is idle and work is available and returns
// the highest-priority entry (EDF within its band), marking the device
// running; or nil once the queue is closed, fully drained and idle.
func (q *pqueue) pop() *entry {
	for {
		q.mu.Lock()
		if !q.running {
			for c := numClasses - 1; c >= 0; c-- {
				if j := q.bands[c].pop(); j != nil {
					q.entries--
					q.running = true
					q.mu.Unlock()
					signal(q.space)
					return j
				}
			}
			if q.closed {
				q.mu.Unlock()
				return nil
			}
		}
		q.mu.Unlock()
		<-q.notEmpty
	}
}

// claim takes e for its waiter to execute, marking the device running as
// pop does, when the device is idle and e is the only entry queued: a
// claim never jumps a queued entry, and a busy device's queue stays its
// worker's.
func (q *pqueue) claim(e *entry) bool {
	q.mu.Lock()
	b := &q.bands[e.class.clamp()]
	h := b.subs[e.tenant]
	ok := !q.running && q.entries == 1 && h != nil && h.Len() == 1 && (*h)[0] == e
	if ok {
		b.pop()
		q.entries--
		q.running = true
	}
	q.mu.Unlock()
	if ok {
		signal(q.space)
	}
	return ok
}

// done marks the device idle again once the entry pop or claim handed out
// has resolved or moved on, and wakes the worker if it has work or must
// exit.
func (q *pqueue) done() {
	q.mu.Lock()
	q.running = false
	wake := q.entries > 0 || q.closed
	q.mu.Unlock()
	if wake {
		signal(q.notEmpty)
	}
}

// hasSpace reports whether a non-forced push would currently be
// admitted.
func (q *pqueue) hasSpace() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return !q.closed && q.entries < q.capacity
}

// close stops admission; the worker drains the remaining entries and
// exits once no claimed entry is running. Idempotent.
func (q *pqueue) close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	q.mu.Unlock()
	signal(q.notEmpty)
	signal(q.space)
}
