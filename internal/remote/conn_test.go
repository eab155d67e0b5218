package remote

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/client"
	"salus/internal/rpc"
)

// wireTap relays TCP connections to target and records, per connection it
// accepted, the method of every request frame the dialing side sent.
type wireTap struct {
	addr   string // where clients dial
	target string // the gateway behind the tap

	mu    sync.Mutex
	conns []map[string]int
}

func newWireTap(t *testing.T, target string) *wireTap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	w := &wireTap{addr: ln.Addr().String(), target: target}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			calls := map[string]int{}
			w.mu.Lock()
			w.conns = append(w.conns, calls)
			w.mu.Unlock()
			go func() {
				io.Copy(c, up)
				c.Close()
			}()
			go func() {
				w.relay(c, up, calls)
				up.Close()
			}()
		}
	}()
	return w
}

// relay forwards request frames from c to up, counting each by method.
func (w *wireTap) relay(c, up net.Conn, calls map[string]int) {
	br := bufio.NewReader(c)
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		// u8 kind | u64 id | u8 method length | method | ...
		if len(body) >= 10 && int(body[9]) <= len(body)-10 {
			w.mu.Lock()
			calls[string(body[10:10+int(body[9])])]++
			w.mu.Unlock()
		}
		if _, err := up.Write(append(hdr[:], body...)); err != nil {
			return
		}
	}
}

// calls reports, per connection the tap accepted, how many method requests
// it carried.
func (w *wireTap) calls(method string) []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	per := make([]int, len(w.conns))
	for i, m := range w.conns {
		per[i] = m[method]
	}
	return per
}

// dialStripe dials a session whose stripe has n connections, whatever the
// host's GOMAXPROCS: the stripe is sized once, at dial.
func dialStripe(t *testing.T, addr string, exps []client.Expectations, n int) *Session {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	sess, err := Dial(addr, exps)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	if len(sess.conn.slots) != n {
		t.Fatalf("stripe of %d connections, want %d", len(sess.conn.slots), n)
	}
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}
	return sess
}

// runConcurrently runs n Conv jobs on sess at once and fails on any lost or
// wrong result.
func runConcurrently(t *testing.T, sess *Session, n int) {
	t.Helper()
	w := accel.GenConv(4, 4, 1, 3)
	want, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, _, err := sess.RunJob("", "Conv", w.Params, w.Input)
			if err != nil || !bytes.Equal(out, want) {
				t.Errorf("job %d: wrong result (%v)", i, err)
			}
		}()
	}
	wg.Wait()
}

// TestSessionCallsSpreadOverTheStripe: concurrent calls on one session ride
// every connection of its stripe, round-robin, each its own TCP stream.
func TestSessionCallsSpreadOverTheStripe(t *testing.T) {
	d := newClusterDeployment(t, 2, accel.Conv{})
	tap := newWireTap(t, d.addr)
	const slots, jobs = 4, 4 * 8
	sess := dialStripe(t, tap.addr, d.expectations(), slots)
	runConcurrently(t, sess, jobs)
	per := tap.calls("Cluster.RunJob")
	if len(per) != slots {
		t.Fatalf("session opened %d connections, want %d", len(per), slots)
	}
	for i, n := range per {
		if n != jobs/slots {
			t.Errorf("connection %d carried %d of %d jobs, want %d: %v", i, n, jobs, jobs/slots, per)
		}
	}
}

// TestStripeRedialsEachSlotOnceOnRestart: a gateway restart breaks every
// connection of the stripe; each one is redialed once, by whichever call
// reaches it first, and no call after the restart is lost.
func TestStripeRedialsEachSlotOnceOnRestart(t *testing.T) {
	d := newClusterDeployment(t, 2, accel.Conv{})
	const slots, jobs = 4, 4 * 8
	sess := dialStripe(t, d.addr, d.expectations(), slots)
	runConcurrently(t, sess, jobs)

	restartGateway(t, d)
	runConcurrently(t, sess, jobs)
	for i := range sess.conn.slots {
		s := &sess.conn.slots[i]
		s.mu.Lock()
		n := s.redials
		s.mu.Unlock()
		if n != 1 {
			t.Errorf("slot %d redialed %d times across one restart, want 1", i, n)
		}
	}
	if got := sess.Redials(); got != slots {
		t.Errorf("Redials() = %d, want %d: one per connection", got, slots)
	}
}

// TestHungRedialBlocksOnlyItsSlot: the redial of a torn-down slot runs
// outside every lock, so while it hangs, a call on a live slot completes,
// close returns at once, and the call waiting on the hung dial returns
// with the close.
func TestHungRedialBlocksOnlyItsSlot(t *testing.T) {
	srv := rpc.NewServer()
	srv.Handle("Echo", rpc.Typed(func(in string) (string, error) { return in, nil }))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	prev := runtime.GOMAXPROCS(2)
	k, err := dial(addr)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}

	dialing, release := make(chan struct{}), make(chan struct{})
	realDial := dialRPC
	dialRPC = func(string) (*rpc.Client, error) {
		close(dialing)
		<-release
		return nil, errors.New("dial released")
	}
	t.Cleanup(func() {
		close(release)
		dialRPC = realDial
	})

	s0 := &k.slots[0]
	k.invalidate(s0, s0.c.Load())
	k.next.Store(uint32(len(k.slots) - 1)) // the next call picks slot 0
	blocked := make(chan error, 1)
	go func() {
		var out string
		blocked <- k.call("Echo", "a", &out)
	}()
	<-dialing

	var out string
	if err := k.call("Echo", "b", &out); err != nil || out != "b" {
		t.Fatalf("call on the live slot: %q, %v", out, err)
	}
	start := time.Now()
	k.close()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("close took %v behind a hung dial", took)
	}
	select {
	case err := <-blocked:
		if !errors.Is(err, errConnClosed) {
			t.Errorf("call waiting on the hung dial: %v, want errConnClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("a call waiting on a hung dial outlived close")
	}
}
