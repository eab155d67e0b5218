package rpc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type echoArgs struct {
	Msg string `json:"msg"`
	N   int    `json:"n"`
}

type echoReply struct {
	Msg string `json:"msg"`
	N   int    `json:"n"`
}

// blob is this package's stand-in for the gateway's job messages (rpc cannot
// import remote): a fixed field and one raw byte section, in its own binary
// form.
type blob struct {
	Tag  uint64
	Data []byte
}

func (b blob) EncodeWire(e *Encoder) {
	e.Uint64(b.Tag)
	e.Section(b.Data)
}

func (b *blob) DecodeWire(body []byte) error {
	d := NewDecoder(body)
	b.Tag, b.Data = d.Uint64(), d.Section()
	return d.Done()
}

// badBlob encodes as a blob whose section claims more bytes than follow.
type badBlob struct{}

func (badBlob) EncodeWire(e *Encoder) {
	e.Uint64(1)
	e.Uint32(1 << 20)
	e.Byte(0xEE)
}

func newEchoServer(t testing.TB) (addr string, srv *Server) {
	t.Helper()
	srv = NewServer()
	srv.Handle("blob", Typed(func(in blob) (blob, error) {
		return in, nil // the result aliases the request frame
	}))
	srv.Handle("echo", Typed(func(in echoArgs) (echoReply, error) {
		return echoReply{Msg: in.Msg, N: in.N + 1}, nil
	}))
	srv.Handle("fail", Typed(func(in echoArgs) (echoReply, error) {
		return echoReply{}, errors.New("deliberate failure: " + in.Msg)
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, srv
}

func TestCallRoundTrip(t *testing.T) {
	addr, _ := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out echoReply
	if err := c.Call("echo", echoArgs{Msg: "hello", N: 41}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Msg != "hello" || out.N != 42 {
		t.Errorf("reply = %+v", out)
	}
}

func TestCallErrorPropagates(t *testing.T) {
	addr, _ := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("fail", echoArgs{Msg: "boom"}, nil)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v", err)
	}
	// The connection survives a handler error.
	var out echoReply
	if err := c.Call("echo", echoArgs{N: 1}, &out); err != nil || out.N != 2 {
		t.Errorf("connection dead after error: %v %+v", err, out)
	}
}

func TestUnknownMethod(t *testing.T) {
	addr, _ := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("nope", nil, nil); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("err = %v", err)
	}
}

func TestBadParams(t *testing.T) {
	addr, _ := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("echo", json.RawMessage(`"not an object"`), nil); err == nil {
		t.Error("accepted mistyped params")
	}
	// A binary payload whose section length lies, a JSON payload of the wrong
	// shape for a binary type, and a binary payload for a JSON-only type each
	// fail that one call.
	var se *ServerError
	for _, tc := range []struct {
		method string
		params any
	}{{"blob", badBlob{}}, {"blob", "a JSON string"}, {"echo", blob{Tag: 1}}} {
		if err := c.Call(tc.method, tc.params, nil); !errors.As(err, &se) || !strings.Contains(se.Msg, "rpc: bad params") {
			t.Errorf("%s(%T): err = %v, want a bad-params ServerError", tc.method, tc.params, err)
		}
	}
	var out blob
	if err := c.Call("blob", blob{Tag: 7, Data: []byte("ok")}, &out); err != nil || out.Tag != 7 || string(out.Data) != "ok" {
		t.Errorf("connection unusable after malformed payloads: %v %+v", err, out)
	}
}

func TestConcurrentClients(t *testing.T) {
	addr, _ := newEchoServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				var out echoReply
				msg := fmt.Sprintf("c%d-%d", i, j)
				if err := c.Call("echo", echoArgs{Msg: msg, N: j}, &out); err != nil {
					t.Error(err)
					return
				}
				if out.Msg != msg || out.N != j+1 {
					t.Errorf("reply %+v for %s/%d", out, msg, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestSharedClientConcurrency(t *testing.T) {
	addr, _ := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out echoReply
			if err := c.Call("echo", echoArgs{N: i}, &out); err != nil {
				t.Error(err)
				return
			}
			if out.N != i+1 {
				t.Errorf("got %d want %d", out.N, i+1)
			}
		}(i)
	}
	wg.Wait()
}

func TestLargePayload(t *testing.T) {
	addr, _ := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := strings.Repeat("x", 4<<20)
	var out echoReply
	if err := c.Call("echo", echoArgs{Msg: big}, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Msg) != len(big) {
		t.Errorf("len = %d", len(out.Msg))
	}
}

func TestCallAfterClose(t *testing.T) {
	addr, _ := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Call("echo", nil, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	addr, srv := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Close()
	if err := c.Call("echo", echoArgs{}, nil); err == nil {
		t.Error("call succeeded on closed server")
	}
}

func TestFrameSizeLimit(t *testing.T) {
	if _, err := encodeFrame(kindRequest, 1, "m", strings.Repeat("y", MaxFrame+16)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("JSON payload: err = %v", err)
	}
	if _, err := encodeFrame(kindRequest, 1, "m", blob{Data: make([]byte, MaxFrame)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("borrowed section: err = %v", err)
	}
	if _, err := encodeFrame(kindRequest, 1, strings.Repeat("m", 256), nil); err == nil {
		t.Error("accepted a method name its length byte cannot hold")
	}
}

func TestCallTimeout(t *testing.T) {
	// A handler that never answers within the deadline.
	srv := NewServer()
	block := make(chan struct{})
	srv.Handle("hang", Typed(func(struct{}) (struct{}, error) {
		<-block
		return struct{}{}, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(block); srv.Close() }()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(100 * time.Millisecond)
	start := time.Now()
	if err := c.Call("hang", struct{}{}, nil); err == nil {
		t.Fatal("hung call returned nil")
	}
	if time.Since(start) > 3*time.Second {
		t.Error("timeout did not bound the call")
	}
}

func TestTimeoutAbandonsCallWithoutBreakingClient(t *testing.T) {
	// A timed-out call is abandoned, not fatal: its late reply is matched
	// by ID and discarded, and the connection keeps serving other calls.
	srv := NewServer()
	release := make(chan struct{})
	srv.Handle("hang", Typed(func(struct{}) (struct{}, error) {
		<-release
		return struct{}{}, nil
	}))
	srv.Handle("echo", Typed(func(in echoArgs) (echoReply, error) {
		return echoReply{Msg: in.Msg, N: in.N + 1}, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(100 * time.Millisecond)
	if err := c.Call("hang", struct{}{}, nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("timed-out call: err = %v, want ErrTimeout", err)
	}
	// The connection is still healthy for other methods.
	var out echoReply
	if err := c.Call("echo", echoArgs{N: 1}, &out); err != nil || out.N != 2 {
		t.Fatalf("client dead after timeout: %v %+v", err, out)
	}
	// Now let the hung handler answer: the late reply's ID matches the
	// abandoned call and must be dropped, not handed to the next Call and
	// not treated as stream desync.
	close(release)
	//lint:allow test-sleep generous margin for the late reply to arrive and be dropped; the assertions after it are the real check
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 4; i++ {
		if err := c.Call("echo", echoArgs{N: i}, &out); err != nil || out.N != i+1 {
			t.Fatalf("call %d after late reply: %v %+v", i, err, out)
		}
	}
}

func TestConcurrentCallsOverlapOnOneConnection(t *testing.T) {
	// Head-of-line blocking regression test: a slow handler must not delay
	// a fast call sharing the same client and connection.
	const slowFor = 400 * time.Millisecond
	srv := NewServer()
	srv.Handle("slow", Typed(func(struct{}) (struct{}, error) {
		//lint:allow test-sleep the slow handler IS the fixture: the head-of-line test needs a request that occupies real wall-clock time
		time.Sleep(slowFor)
		return struct{}{}, nil
	}))
	srv.Handle("echo", Typed(func(in echoArgs) (echoReply, error) {
		return echoReply{Msg: in.Msg, N: in.N + 1}, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	slowDone := make(chan time.Time, 1)
	go func() {
		if err := c.Call("slow", struct{}{}, nil); err != nil {
			t.Error(err)
		}
		slowDone <- time.Now()
	}()
	//lint:allow test-sleep generous margin for the slow request to reach the server before the fast one is issued
	time.Sleep(30 * time.Millisecond) // the slow request is on the wire
	var out echoReply
	start := time.Now()
	if err := c.Call("echo", echoArgs{N: 7}, &out); err != nil || out.N != 8 {
		t.Fatalf("fast call: %v %+v", err, out)
	}
	fastDone := time.Now()
	if d := fastDone.Sub(start); d > slowFor/2 {
		t.Errorf("fast call took %v behind a %v handler: still head-of-line blocked", d, slowFor)
	}
	if slowAt := <-slowDone; !fastDone.Before(slowAt) {
		t.Error("fast call finished after the slow call: no overlap on the shared connection")
	}
}

func TestClientBrokenAfterIDMismatch(t *testing.T) {
	// A raw TCP server answering with the wrong response ID: framing-level
	// desync. The first call errors; the client must not reuse the stream.
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
		for {
			body, _, err := readFrame(br, false)
			if err != nil {
				return
			}
			req, err := parseFrame(body)
			if err != nil {
				return
			}
			resp, _ := encodeFrame(kindResult, req.id+7, "", nil)
			if _, err := resp.writeTo(conn); err != nil {
				return
			}
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("echo", echoArgs{}, nil); !errors.Is(err, ErrBroken) {
		t.Fatalf("mismatched-ID call: err = %v, want ErrBroken", err)
	}
	if err := c.Call("echo", echoArgs{}, nil); !errors.Is(err, ErrBroken) {
		t.Errorf("second call: err = %v, want fast ErrBroken", err)
	}
}

// TestUnsendableResultFailsOneCall is the regression test for a handler
// result that cannot be sent — larger than MaxFrame, or unencodable — tearing
// down the whole connection: the size is known and the encoding done before
// the first byte goes out, so that one id gets an error frame and every other
// call in flight on the connection completes.
func TestUnsendableResultFailsOneCall(t *testing.T) {
	srv := NewServer()
	hold := make(chan struct{})
	var parked sync.WaitGroup
	srv.Handle("huge", Typed(func(struct{}) (blob, error) {
		return blob{Data: make([]byte, MaxFrame+1)}, nil
	}))
	srv.Handle("unencodable", Typed(func(struct{}) (chan int, error) {
		return make(chan int), nil
	}))
	srv.Handle("parked", Typed(func(in echoArgs) (echoReply, error) {
		parked.Done()
		<-hold
		return echoReply{N: in.N + 1}, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	broken := mCliBroken.Value()

	const normal = 8
	parked.Add(normal)
	errs := make(chan error, normal)
	for i := 0; i < normal; i++ {
		go func(i int) {
			var out echoReply
			err := c.Call("parked", echoArgs{N: i}, &out)
			if err == nil && out.N != i+1 {
				err = fmt.Errorf("call %d answered %d", i, out.N)
			}
			errs <- err
		}(i)
	}
	parked.Wait() // all eight are inside their handlers, on this connection

	var se *ServerError
	if err := c.Call("huge", struct{}{}, nil); !errors.As(err, &se) || se.Msg != "rpc: result exceeds maximum frame size" {
		t.Errorf("oversized result: err = %v, want a ServerError naming the frame limit", err)
	}
	if err := c.Call("unencodable", struct{}{}, nil); !errors.As(err, &se) || !strings.HasPrefix(se.Msg, "rpc: encode result: ") {
		t.Errorf("unencodable result: err = %v, want an encode-result ServerError", err)
	}
	close(hold)
	for i := 0; i < normal; i++ {
		if err := <-errs; err != nil {
			t.Errorf("a call in flight beside the unsendable results failed: %v", err)
		}
	}
	if got := mCliBroken.Value(); got != broken {
		t.Errorf("salus_rpc_client_broken_total moved by %d", got-broken)
	}
}

// TestDecodedSectionsOutliveTheirFrames proves both aliasing rules with
// poison on release: a result Call decoded stays byte-identical while the
// client makes a thousand further calls, and a request a handler decoded
// stays intact, while other calls churn the frame pool, until the handler
// returns — and through the write of a result that aliases it.
func TestDecodedSectionsOutliveTheirFrames(t *testing.T) {
	pattern := func(tag uint64, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(tag) + byte(i)*7
		}
		return b
	}
	srv := NewServer()
	entered, hold := make(chan struct{}), make(chan struct{})
	srv.Handle("held", Typed(func(in blob) (blob, error) {
		close(entered)
		<-hold
		if !bytes.Equal(in.Data, pattern(in.Tag, len(in.Data))) {
			return blob{}, errors.New("request changed under its handler")
		}
		return in, nil
	}))
	srv.Handle("blob", Typed(func(in blob) (blob, error) { return in, nil }))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	heldDone := make(chan error, 1)
	go func() {
		var out blob
		err := c.Call("held", blob{Tag: 99, Data: pattern(99, 3000)}, &out)
		if err == nil && !bytes.Equal(out.Data, pattern(99, 3000)) {
			err = errors.New("result aliasing the request frame arrived corrupted")
		}
		heldDone <- err
	}()
	<-entered

	var first blob
	if err := c.Call("blob", blob{Tag: 1, Data: pattern(1, 2048)}, &first); err != nil {
		t.Fatal(err)
	}
	for i := uint64(2); i < 1002; i++ {
		var out blob
		size := 64 + int(i%5)*900
		if i%250 == 0 {
			size = frameChunk + 4096 // a frame past one chunk: grown through a second class
		}
		if err := c.Call("blob", blob{Tag: i, Data: pattern(i, size)}, &out); err != nil {
			t.Fatal(err)
		}
		if out.Tag != i || !bytes.Equal(out.Data, pattern(i, size)) {
			t.Fatalf("call %d echoed wrongly", i)
		}
	}
	if first.Tag != 1 || !bytes.Equal(first.Data, pattern(1, 2048)) {
		t.Error("a decoded result changed after Call returned")
	}
	close(hold)
	if err := <-heldDone; err != nil {
		t.Error(err)
	}
}

// releasedBlob is a blob result under the release rule: Release scribbles
// over its section, as handing it back to a pool does, and counts its
// calls. With bad set it also carries a string field too long for the wire,
// so its encoding fails after the section is already borrowed.
type releasedBlob struct {
	blob
	bad      bool
	releases *atomic.Int32
}

func (r releasedBlob) EncodeWire(e *Encoder) {
	r.blob.EncodeWire(e)
	if r.bad {
		e.String(strings.Repeat("x", math.MaxUint16+1))
	}
}

func (r releasedBlob) Release() {
	for i := range r.Data {
		r.Data[i] = 0xA5
	}
	r.releases.Add(1)
}

// TestResultReleasedOnceAfterWrite: the server releases a result exactly
// once and only after its frame's bytes are written, so every echo reaches
// the client intact although Release scribbles over the section the write
// sent from. A result whose encoding failed is released too, and so is one
// whose peer hung up before it was written; a handler error's result never
// is.
func TestResultReleasedOnceAfterWrite(t *testing.T) {
	const calls = 200
	var releases [calls + 3]atomic.Int32
	pattern := func(tag uint64) []byte {
		return bytes.Repeat([]byte{byte(tag), byte(tag >> 8), 0x5C}, 300+int(tag))
	}
	result := func(tag uint64, bad bool) releasedBlob {
		return releasedBlob{blob: blob{Tag: tag, Data: pattern(tag)}, bad: bad, releases: &releases[tag]}
	}
	const failed, unencodable, orphaned = calls, calls + 1, calls + 2
	entered, hold := make(chan struct{}), make(chan struct{})
	srv := NewServer()
	srv.Handle("release", Typed(func(in blob) (releasedBlob, error) { return result(in.Tag, false), nil }))
	srv.Handle("fail", Typed(func(struct{}) (releasedBlob, error) {
		return result(failed, false), errors.New("refused")
	}))
	srv.Handle("unencodable", Typed(func(struct{}) (releasedBlob, error) { return result(unencodable, true), nil }))
	srv.Handle("orphan", Typed(func(struct{}) (releasedBlob, error) {
		close(entered)
		<-hold
		return result(orphaned, false), nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for g := uint64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tag := g; tag < calls; tag += 4 {
				var out blob
				if err := c.Call("release", blob{Tag: tag}, &out); err != nil {
					t.Error(err)
					return
				}
				if out.Tag != tag || !bytes.Equal(out.Data, pattern(tag)) {
					t.Errorf("call %d: the result was released before its frame was written", tag)
				}
			}
		}()
	}
	wg.Wait()
	var se *ServerError
	if err := c.Call("fail", struct{}{}, nil); !errors.As(err, &se) || se.Msg != "refused" {
		t.Errorf("failing handler: err = %v", err)
	}
	if err := c.Call("unencodable", struct{}{}, nil); !errors.As(err, &se) || !strings.HasPrefix(se.Msg, "rpc: encode result: ") {
		t.Errorf("unencodable result: err = %v, want an encode-result ServerError", err)
	}

	orphan, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	called := make(chan error, 1)
	go func() { called <- orphan.Call("orphan", struct{}{}, nil) }()
	<-entered
	orphan.Close()
	if err := <-called; err == nil {
		t.Error("a call on a closed client succeeded")
	}
	close(hold)
	srv.Close() // waits for every handler goroutine, releases included

	for tag := range releases {
		want := int32(1)
		if tag == failed {
			want = 0
		}
		if got := releases[tag].Load(); got != want {
			t.Errorf("result %d released %d times, want %d", tag, got, want)
		}
	}
}
