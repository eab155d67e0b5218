package rpc

import (
	"bufio"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedServer parks every "gated" request for caller N until release(N),
// after announcing N on arrived. Unreleased gates open at cleanup, before
// the server closes, so a failed test cannot hang on its handlers.
func gatedServer(t *testing.T, callers int) (addr string, arrived <-chan int, release func(int)) {
	t.Helper()
	in := make(chan int, callers)
	gates := make([]chan struct{}, callers)
	opened := make([]sync.Once, callers)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	release = func(i int) { opened[i].Do(func() { close(gates[i]) }) }
	srv := NewServer()
	srv.Handle("gated", Typed(func(a echoArgs) (echoReply, error) {
		in <- a.N
		<-gates[a.N]
		return echoReply{N: a.N}, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for i := range gates {
			release(i)
		}
		srv.Close()
	})
	return addr, in, release
}

type callResult struct {
	n   int
	err error
}

// within waits for a call's result, failing the test if none comes.
func within(t *testing.T, ch <-chan callResult, what string) callResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never returned", what)
		return callResult{}
	}
}

// TestReadRoleChangesHands: four callers share one connection, their
// requests parked at the server until the test releases them one at a
// time. Released reader first, every reply ends the read role of the
// caller it answers, which hands it to a caller still waiting — three
// hand-offs; released in reverse order of the calls, the first caller
// reads every reply and routes the other three. Either way each caller
// returns with its own reply, and only once it is released.
func TestReadRoleChangesHands(t *testing.T) {
	const callers = 4
	for _, readerFirst := range []bool{true, false} {
		name := "reverse"
		if readerFirst {
			name = "reader first"
		}
		t.Run(name, func(t *testing.T) {
			addr, arrived, release := gatedServer(t, callers)
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			results := make([]chan callResult, callers)
			for i := range results {
				results[i] = make(chan callResult, 1)
				go func() {
					var out echoReply
					err := c.Call("gated", echoArgs{N: i}, &out)
					results[i] <- callResult{out.N, err}
				}()
				if n := <-arrived; n != i {
					t.Fatalf("request %d arrived as %d", i, n)
				}
				if i == 0 {
					// The first caller of an idle client takes the read role;
					// wait for it, so no later caller can take it first.
					pollUntil(t, "the first caller took the read role", c.isReading)
					continue
				}
				// Call i holds id i+1; once it waits, the role may be handed to it.
				pollUntil(t, "a later caller waits with its request sent", func() bool {
					c.mu.Lock()
					defer c.mu.Unlock()
					return c.pending[uint64(i+1)].written
				})
			}
			// A caller the role was handed to has left the pending map while
			// its reply is still parked.
			handedTo := func(left map[int]bool) []int {
				c.mu.Lock()
				defer c.mu.Unlock()
				var readers []int
				for i := range left {
					if _, pending := c.pending[uint64(i+1)]; !pending {
						readers = append(readers, i)
					}
				}
				return readers
			}
			left := map[int]bool{}
			for i := 0; i < callers; i++ {
				left[i] = true
			}
			next := 0 // the reader: the first caller
			for step := 0; step < callers; step++ {
				if !readerFirst {
					next = callers - 1 - step
				}
				release(next)
				r := within(t, results[next], "a released call")
				if r.err != nil || r.n != next {
					t.Fatalf("caller %d got %d, %v", next, r.n, r.err)
				}
				delete(left, next)
				for i := range left {
					select {
					case r := <-results[i]:
						t.Fatalf("caller %d returned %d, %v before its release", i, r.n, r.err)
					default:
					}
				}
				readers := handedTo(left)
				switch {
				case !readerFirst && len(readers) != 0:
					t.Fatalf("the role changed hands to %v while the first caller still waited", readers)
				case readerFirst && len(left) > 0 && len(readers) != 1:
					t.Fatalf("after caller %d's reply the role went to %v, want one waiting caller", next, readers)
				case readerFirst && len(left) > 0:
					next = readers[0]
				}
			}
			if c.isReading() {
				t.Error("the read role is still held with no call pending")
			}
		})
	}
}

func (c *Client) isReading() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reading
}

// rawServer accepts one connection and serves it with serve on a single
// goroutine, started before it returns.
func rawServer(t *testing.T, serve func(conn net.Conn, br *bufio.Reader)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		serve(conn, bufio.NewReader(conn))
	}()
	return ln.Addr().String()
}

// reply answers call id with an empty result.
func reply(conn net.Conn, id uint64) error {
	resp, err := encodeFrame(kindResult, id, "", nil)
	if err != nil {
		return err
	}
	defer resp.release()
	_, err = resp.writeTo(conn)
	return err
}

// TestIdleClientHoldsNoGoroutine: a client runs no goroutine of its own,
// before, between or after calls, lone or concurrent; only its callers
// read the connection.
func TestIdleClientHoldsNoGoroutine(t *testing.T) {
	addr := rawServer(t, func(conn net.Conn, br *bufio.Reader) {
		for {
			body, _, err := readFrame(br, false)
			if err != nil {
				return
			}
			req, err := parseFrame(body)
			if err != nil || reply(conn, req.id) != nil {
				return
			}
		}
	})
	baseline := runtime.NumGoroutine()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	idle := func(when string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before Dial", when, runtime.NumGoroutine(), baseline)
			}
		}
	}
	idle("after Dial")
	for i := 0; i < 3; i++ {
		if err := c.Call("echo", echoArgs{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	idle("after lone calls")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if err := c.Call("echo", echoArgs{}, nil); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	finished := make(chan callResult)
	go func() { wg.Wait(); close(finished) }()
	within(t, finished, "a concurrent call")
	idle("after concurrent calls")
}

// parkedWrite passes every write through, then parks the hold-th one until
// resume is closed, after closing parked.
type parkedWrite struct {
	net.Conn
	writes         atomic.Int32
	hold           int32
	parked, resume chan struct{}
}

func (p *parkedWrite) Write(b []byte) (int, error) {
	n, err := p.Conn.Write(b)
	if p.writes.Add(1) == p.hold {
		close(p.parked)
		<-p.resume
	}
	return n, err
}

// TestReplyRoutedBeforeCallerLeads pins the race between a caller's write
// and its claim on the read role: caller B reads, caller A's request is
// answered first, and A is held between its write and its claim until B
// has routed A's reply, read its own and given the role up. A must then
// find its reply routed, not take the role and wait on the wire for a reply
// that has already come.
func TestReplyRoutedBeforeCallerLeads(t *testing.T) {
	got := make(chan uint64, 2)
	addr := rawServer(t, func(conn net.Conn, br *bufio.Reader) {
		var ids []uint64
		for len(ids) < 2 {
			body, _, err := readFrame(br, false)
			if err != nil {
				return
			}
			req, err := parseFrame(body)
			if err != nil {
				return
			}
			ids = append(ids, req.id)
			got <- req.id
		}
		for i := len(ids) - 1; i >= 0; i-- { // A's reply first
			if reply(conn, ids[i]) != nil {
				return
			}
		}
		br.ReadByte() // hold the connection until the client drops it
	})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	w := &parkedWrite{Conn: raw, hold: 2, parked: make(chan struct{}), resume: make(chan struct{})}
	c := newClient(w)
	defer c.Close()
	b := start(c)
	if id := <-got; id != 1 {
		t.Fatalf("B's request carried id %d", id)
	}
	a := start(c)
	<-w.parked
	if r := within(t, b, "B, the reader"); r.err != nil {
		t.Fatal(r.err)
	}
	close(w.resume)
	if r := within(t, a, "A, whose reply was routed before it could read"); r.err != nil {
		t.Fatal(r.err)
	}
}

// start runs one call on its own goroutine.
func start(c *Client) <-chan callResult {
	ch := make(chan callResult, 1)
	go func() { ch <- callResult{err: c.Call("echo", echoArgs{}, nil)} }()
	return ch
}

// pollUntil fails the test if cond does not hold within five seconds.
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("never: %s", what)
		}
	}
}

// TestReadRoleSkipsCallerStillWriting: the read role is handed only to a
// caller whose request is on the wire. Caller R reads, X waits with its
// request sent, W is held inside its write and five more callers queue
// behind W for the write lock. R's reply must hand the role to X, which
// then reads its own reply while W is still writing; with X done and
// nobody else's request sent the role is given up, and W takes it once its
// write returns.
func TestReadRoleSkipsCallerStillWriting(t *testing.T) {
	got := make(chan uint64, 8)
	answer := make(chan uint64)
	addr := rawServer(t, func(conn net.Conn, br *bufio.Reader) {
		var wmu sync.Mutex
		send := func(id uint64) {
			wmu.Lock()
			defer wmu.Unlock()
			reply(conn, id)
		}
		go func() {
			for id := range answer {
				send(id)
			}
		}()
		for {
			body, _, err := readFrame(br, false)
			if err != nil {
				return
			}
			req, err := parseFrame(body)
			if err != nil {
				return
			}
			got <- req.id
			if req.id > 3 { // R's, X's and W's replies wait for the test
				send(req.id)
			}
		}
	})
	defer close(answer)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	w := &parkedWrite{Conn: raw, hold: 3, parked: make(chan struct{}), resume: make(chan struct{})}
	c := newClient(w)
	defer c.Close()
	defer func() {
		select {
		case <-w.resume:
		default:
			close(w.resume)
		}
	}()
	pendingCall := func(id uint64) (call, bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		p, ok := c.pending[id]
		return p, ok
	}
	r := start(c)
	if id := <-got; id != 1 {
		t.Fatalf("R's request carried id %d", id)
	}
	pollUntil(t, "R took the read role", c.isReading)
	x := start(c)
	if id := <-got; id != 2 {
		t.Fatalf("X's request carried id %d", id)
	}
	pollUntil(t, "X waits with its request sent", func() bool { p, _ := pendingCall(2); return p.written })
	wr := start(c)
	<-w.parked
	var queued []<-chan callResult
	for i := 0; i < 5; i++ {
		queued = append(queued, start(c))
	}
	pollUntil(t, "five callers queued behind W", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.pending) == 8
	})

	answer <- 1
	if res := within(t, r, "R"); res.err != nil {
		t.Fatal(res.err)
	}
	if _, ok := pendingCall(2); ok {
		t.Fatal("R handed the read role to a caller still writing, not to X")
	}
	answer <- 2
	if res := within(t, x, "X, reading while W writes"); res.err != nil {
		t.Fatal(res.err)
	}
	if c.isReading() {
		t.Fatal("X kept or passed on the read role with no request but its own sent")
	}
	close(w.resume)
	answer <- 3
	for i, ch := range append(queued, wr) {
		if res := within(t, ch, "a caller that wrote after X"); res.err != nil {
			t.Fatalf("caller %d: %v", i, res.err)
		}
	}
}
