package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestInFlightBoundPerConnection: 100 concurrent calls on one client into a
// handler that blocks run at most maxInFlightPerConn handlers at once, the
// rest wait in the connection's read loop, and all 100 complete once the
// handler is released. After Server.Close no handler worker is left parked.
func TestInFlightBoundPerConnection(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const calls = 100
	var cur, peak atomic.Int32
	entered := make(chan struct{}, calls)
	release := make(chan struct{})
	srv := NewServer()
	srv.Handle("block", Typed(func(in blob) (blob, error) {
		n := cur.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		entered <- struct{}{}
		<-release
		cur.Add(-1)
		return blob{Tag: in.Tag + 1}, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	// Every request frame has one size, so the bytes the server has read
	// count the requests it has taken off the wire.
	req, err := encodeFrame(kindRequest, 0, "block", blob{})
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(len(req.buf) + req.borrowed)
	req.release()
	rx := mSrvRxBytes.Value()
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func(i uint64) {
			var out blob
			err := c.Call("block", blob{Tag: i}, &out)
			if err == nil && out.Tag != i+1 {
				err = fmt.Errorf("call %d answered %d", i, out.Tag)
			}
			errs <- err
		}(uint64(i))
	}
	for i := 0; i < maxInFlightPerConn; i++ {
		<-entered
	}
	// The read loop has taken one request past the bound and holds it for
	// the first worker to come free.
	for deadline := time.Now().Add(5 * time.Second); mSrvRxBytes.Value()-rx < (maxInFlightPerConn+1)*size; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("the read loop never took request %d", maxInFlightPerConn+1)
		}
	}
	if got := cur.Load(); got != maxInFlightPerConn {
		t.Errorf("%d handlers running with every worker blocked, want %d", got, maxInFlightPerConn)
	}
	close(release)
	for i := 0; i < calls; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if got := peak.Load(); got != maxInFlightPerConn {
		t.Errorf("peak handler concurrency on one connection %d, want %d", got, maxInFlightPerConn)
	}

	c.Close()
	srv.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Server.Close, %d before the server started", runtime.NumGoroutine(), baseline)
		}
	}
}

// TestTypedPoolHoldsNoSection: the value Typed decodes a request into goes
// back to its pool zeroed, so once the handler runs nothing in the pool
// still reaches the request frame, which is recycled after the response.
func TestTypedPoolHoldsNoSection(t *testing.T) {
	var fresh int
	pool := &sync.Pool{New: func() any { fresh++; return new(blob) }}
	frame := binary.BigEndian.AppendUint64(nil, 7)
	frame = binary.BigEndian.AppendUint32(frame, 3)
	frame = append(frame, 1, 2, 3)
	section := &frame[len(frame)-3]
	h := typed(pool, func(in blob) (blob, error) {
		if in.Tag != 7 || len(in.Data) != 3 || &in.Data[0] != section {
			t.Fatalf("handler got %+v, not the section aliasing its frame", in)
		}
		return in, nil
	})
	const calls = 100
	for i := 0; i < calls; i++ {
		if _, err := h(Payload{codec: codecWire, data: frame}); err != nil {
			t.Fatal(err)
		}
		p := pool.Get().(*blob)
		if p.Tag != 0 || p.Data != nil {
			t.Fatalf("call %d: the pool holds %+v after the handler ran", i, *p)
		}
		pool.Put(p)
	}
	if fresh >= calls {
		t.Fatalf("the pool never recycled a value (%d made for %d calls)", fresh, calls)
	}
}

// TestBrokenMidFlightFailsEveryPendingCall: a client whose stream desyncs
// with calls in flight fails every one of them with ErrBroken, and the
// closed reply channels are not recycled: a fresh client's calls, from
// several goroutines, all get their replies.
func TestBrokenMidFlightFailsEveryPendingCall(t *testing.T) {
	const pending = 16
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for i := 0; i < pending; i++ {
			if _, _, err := readFrame(br, false); err != nil {
				return
			}
		}
		// Every call is on the wire: answer an ID no call holds.
		resp, _ := encodeFrame(kindResult, 0, "", nil)
		resp.writeTo(conn)
		resp.release()
		br.ReadByte() // hold the connection until the client drops it
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errs := make(chan error, pending)
	for i := 0; i < pending; i++ {
		go func() { errs <- c.Call("echo", echoArgs{}, nil) }()
	}
	for i := 0; i < pending; i++ {
		if err := <-errs; !errors.Is(err, ErrBroken) {
			t.Errorf("pending call %d: err = %v, want ErrBroken", i, err)
		}
	}

	addr, _ := newEchoServer(t)
	fresh, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4*pending; i++ {
				var out echoReply
				if err := fresh.Call("echo", echoArgs{N: i}, &out); err != nil || out.N != i+1 {
					t.Errorf("fresh client call %d: %v %+v", i, err, out)
					return
				}
			}
		}()
	}
	wg.Wait()
}
