// Package rpc is the remote-procedure-call layer of the Salus software
// stack (§5.2, Figure 6). The paper leverages gRPC "for easy development
// and extension"; this reproduction implements the same role on the
// standard library: length-prefixed binary frames over TCP, a method-table
// server, and a multiplexing client. The job messages carry their sealed
// payloads as raw byte sections; the rare control messages are JSON inside
// the same envelope.
//
// Both ends are fully concurrent. Each server connection serves its
// requests on handler workers it starts on demand, at most
// maxInFlightPerConn of them, each running one handler at a time
// (responses are serialised by a per-connection write lock, so a slow
// handler never blocks a fast one). The client matches responses to calls
// through an ID → pending-call map, so any number of concurrent Calls share
// one connection without head-of-line blocking — a long-running job RPC
// does not delay a stats poll on the same socket. A call has no timeout: it
// ends with its reply or with its connection. One connection still has one
// read loop at each end, which caps it at about one processor's worth of
// work; a client that needs more opens several (internal/remote stripes an
// owner session over one per processor).
//
// Security posture matches the paper's: RPC transports are *untrusted*.
// Everything sensitive that crosses them is independently protected —
// quotes are signed, keys are sealed to attested enclaves, metadata rides
// attested channels — so the RPC layer needs no TLS of its own, and the
// tests tamper with it freely.
package rpc

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"salus/internal/bufpool"
	"salus/internal/metrics"
)

// Handles into the process-wide metrics registry, acquired once so the
// per-frame cost is a single atomic op (see internal/metrics). Server and
// client are instrumented separately: a gateway process wants to tell its
// own serving load from the load it generates as a client of others.
var (
	mSrvInflight = metrics.Default().Gauge("salus_rpc_server_inflight")
	mSrvRequests = metrics.Default().Counter("salus_rpc_server_requests_total")
	mSrvErrors   = metrics.Default().Counter("salus_rpc_server_errors_total")
	mSrvRxBytes  = metrics.Default().Counter("salus_rpc_server_rx_bytes_total")
	mSrvTxBytes  = metrics.Default().Counter("salus_rpc_server_tx_bytes_total")
	mSrvHandle   = metrics.Default().Histogram("salus_rpc_server_handle_seconds")

	mCliInflight = metrics.Default().Gauge("salus_rpc_client_inflight")
	mCliCalls    = metrics.Default().Counter("salus_rpc_client_calls_total")
	mCliBroken   = metrics.Default().Counter("salus_rpc_client_broken_total")
	mCliRxBytes  = metrics.Default().Counter("salus_rpc_client_rx_bytes_total")
	mCliTxBytes  = metrics.Default().Counter("salus_rpc_client_tx_bytes_total")
	mCliCall     = metrics.Default().Histogram("salus_rpc_client_call_seconds")
)

// MaxFrame bounds a single message (a U200 bitstream plus headroom).
const MaxFrame = 64 << 20

// maxInFlightPerConn bounds how many handler workers one connection may
// have, and so how many of its handlers run at once; further requests wait
// in the read loop. It keeps a hostile or buggy peer from ballooning the
// server with one socket.
const maxInFlightPerConn = 64

// Errors.
var (
	ErrFrameTooLarge = errors.New("rpc: frame exceeds maximum size")
	ErrClosed        = errors.New("rpc: connection closed")
	// ErrBroken marks a client whose wire stream desynced (read failure,
	// undecodable frame, response ID matching no call): the connection
	// cannot be trusted to frame correctly any more, so every pending and
	// subsequent Call fails fast and the caller re-dials. It wraps
	// ErrClosed so retry layers treat it as a transport failure.
	ErrBroken = fmt.Errorf("rpc: transport desynced, client unusable: %w", ErrClosed)
)

// ServerError is an application-level failure reported by a handler. It is
// distinguishable from transport failures, so clients can retry the latter
// without re-running calls the server already rejected deliberately.
type ServerError struct {
	Msg string
}

// Error implements error.
func (e *ServerError) Error() string { return e.Msg }

// Frame layout, every integer big-endian:
//
//	u32 body length | u8 kind | u64 id | u8 method length | method | u8 codec | payload
//
// A result or error frame answers the request with the same id and carries
// an empty method; an error frame's payload is its message, a JSON string.
// The codec says who wrote the payload: encoding/json, or the message type
// itself (see WireEncoder). The sender picks it from the value's type and
// the receiver obeys the byte, so there is nothing to negotiate.
const (
	kindRequest = 1 + iota
	kindResult
	kindError
)

const (
	codecJSON = iota
	codecWire
)

// frame is one parsed envelope; method and payload alias the body.
type frame struct {
	kind    byte
	id      uint64
	method  []byte
	payload Payload
}

func parseFrame(body []byte) (frame, error) {
	d := NewDecoder(body)
	f := frame{kind: d.Byte(), id: d.Uint64()}
	f.method = d.take(int(d.Byte()))
	f.payload = Payload{codec: d.Byte(), data: d.b}
	return f, d.err
}

// encPool recycles frame encoders. One whose scratch ballooned past a few
// chunks (a JSON control message of many MiB, say) is dropped rather than
// pooled, so one huge frame does not pin its buffer for the life of the
// process.
var encPool = sync.Pool{New: func() any { return new(Encoder) }}

const maxPooledWriteBuf = 4 * frameChunk

// encodeFrame builds one frame without touching the wire, so a value that
// cannot be encoded or does not fit MaxFrame costs its caller an error and
// the connection nothing. The caller sends the frame with writeTo under its
// write lock and then releases it.
func encodeFrame(kind byte, id uint64, method string, v any) (*Encoder, error) {
	e := encPool.Get().(*Encoder)
	e.buf = append(e.buf[:0], 0, 0, 0, 0, kind)
	e.Uint64(id)
	e.Byte(byte(len(method)))
	e.buf = append(e.buf, method...)
	if m, ok := v.(WireEncoder); ok {
		e.Byte(codecWire)
		m.EncodeWire(e)
	} else {
		e.Byte(codecJSON)
		var doc []byte
		doc, e.err = json.Marshal(v)
		e.buf = append(e.buf, doc...)
	}
	switch body := len(e.buf) + e.borrowed - 4; {
	case e.err != nil:
	case len(method) > math.MaxUint8:
		e.err = fmt.Errorf("rpc: method name of %d bytes", len(method))
	case body > MaxFrame:
		e.err = ErrFrameTooLarge
	default:
		binary.BigEndian.PutUint32(e.buf, uint32(body))
		return e, nil
	}
	err := e.err
	e.release()
	return nil, err
}

// frameChunk is the most readFrame takes on trust. The length prefix is
// attacker-controlled: a hostile peer can claim a frame just under MaxFrame
// (64 MiB) and then hang up, so the buffer must grow with the bytes
// actually received, never with the bytes merely promised.
const frameChunk = 256 << 10

// frameGrowth bounds that growth: a body past one chunk is never backed by
// more than frameGrowth times the bytes its peer has already delivered. A
// factor of 8 lets an honest MiB-sized job land in its final buffer after
// its first chunk, and a maximum-size frame in three steps.
const frameGrowth = 8

// readFrame receives one length-prefixed body, sliced so that its capacity
// is its length. With pooled set, the body lands in a bufpool buffer of its
// size class, returned as buf, to be handed back with bufpool.Put once
// nothing aliases it. Without it, the body is an allocation of exactly its
// size that nothing recycles (buf is nil); only a large body's first chunk
// is staged in the pool. Either way a body past one chunk grows by at most
// frameGrowth times the bytes delivered. Any error means the stream
// position is no longer trustworthy.
func readFrame(br *bufio.Reader, pooled bool) (body, buf []byte, err error) {
	hdr, err := br.Peek(4)
	if err != nil {
		return nil, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > MaxFrame {
		return nil, nil, ErrFrameTooLarge
	}
	br.Discard(4)
	if pooled || n > frameChunk {
		buf = bufpool.Get(min(n, frameChunk))
		body = buf
	} else {
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(br, body); err != nil {
		bufpool.Put(buf)
		return nil, nil, err
	}
	for len(body) < n {
		size := min(n, frameGrowth*len(body))
		var next, grown []byte
		if pooled {
			next = bufpool.Get(size)
			grown = next
		} else {
			grown = make([]byte, size)
		}
		copy(grown, body)
		bufpool.Put(buf)
		buf = next
		if _, err := io.ReadFull(br, grown[len(body):]); err != nil {
			bufpool.Put(buf)
			return nil, nil, err
		}
		body = grown
	}
	return body[:n:n], buf, nil
}

// Handler serves one method: decode params, do work, return a result.
//
// Aliasing rule: params, and every byte section a WireDecoder decodes from
// it, points into a frame buffer that is recycled once the handler has
// returned and its response is on the wire. The result may therefore alias
// the request, but a handler must not leave params, or anything decoded from
// it, where something can reach it after it returns.
//
// Release rule: a result with a Release method gives back what it holds
// through it. The server calls Release exactly once, after the result's
// frame has been written, or its write has failed, or the result could not
// be encoded; never while the encoder still borrows the result's sections,
// and never for a handler that returned an error.
type Handler func(params Payload) (any, error)

// releaser is a handler result under the release rule (see Handler).
type releaser interface{ Release() }

// Server dispatches requests to registered handlers. A connection's read
// loop hands each request to one of the connection's handler workers,
// starting one when none is idle and fewer than maxInFlightPerConn exist,
// and blocking when all of them are busy; the workers exit when their
// connection closes. Responses on a connection are serialised by a write
// lock and may arrive in any order (clients match them by ID). Handlers
// touching shared state must therefore synchronise themselves.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]Handler

	lnMu     sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]Handler),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Handle registers a method. Typed handlers are usually wrapped with
// Typed().
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	s.handlers[method] = h
	s.mu.Unlock()
}

// Typed adapts a strongly typed handler func(In) (Out, error) to a Handler.
// The types pick the codec: an In or Out that implements the wire interfaces
// travels in its own binary form, anything else as JSON. The params are
// decoded into a pooled *In and copied out, so a request costs no In of its
// own; an Out that is a pointer reaches the server without being boxed.
func Typed[In, Out any](fn func(In) (Out, error)) Handler {
	return typed(&sync.Pool{New: func() any { return new(In) }}, fn)
}

// typed is Typed over the pool its decoded params pass through. The pooled
// value is zeroed before it goes back, so no section of a frame that will
// be recycled stays reachable from the pool (the aliasing rule).
func typed[In, Out any](pool *sync.Pool, fn func(In) (Out, error)) Handler {
	return func(params Payload) (any, error) {
		p := pool.Get().(*In)
		err := params.Decode(p)
		in := *p
		var zero In
		*p = zero
		pool.Put(p)
		if err != nil {
			return nil, fmt.Errorf("rpc: bad params: %w", err)
		}
		return fn(in)
	}
}

// Listen starts serving on addr and returns the bound address (useful with
// ":0"). Serving continues until Close.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		ln.Close()
		return "", ErrClosed
	}
	s.listener = ln
	s.lnMu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.lnMu.Lock()
			if s.closed {
				s.lnMu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.lnMu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// request is one parsed request and the pooled frame buffer it aliases.
type request struct {
	frame
	buf []byte
}

func (s *Server) serveConn(conn net.Conn) {
	var handlers sync.WaitGroup
	var wmu sync.Mutex // serialises response frames from concurrent handlers
	// reqs is unbuffered: a send completes only into an idle worker's hands.
	reqs := make(chan request)
	defer func() {
		close(reqs) // every worker returns once its handler has
		handlers.Wait()
		conn.Close()
		s.lnMu.Lock()
		delete(s.conns, conn)
		s.lnMu.Unlock()
	}()
	worker := func() {
		defer handlers.Done()
		for r := range reqs {
			s.serve(conn, &wmu, r)
		}
	}
	br := bufio.NewReader(conn)
	workers := 0
	for {
		body, buf, err := readFrame(br, true)
		if err != nil {
			return
		}
		mSrvRxBytes.Add(uint64(4 + len(body)))
		req, err := parseFrame(body)
		if err != nil || req.kind != kindRequest {
			bufpool.Put(buf)
			return
		}
		mSrvInflight.Add(1)
		// req aliases the frame body, and the result may alias req, so the
		// worker that takes it owns buf until its response is written.
		r := request{req, buf}
		select {
		case reqs <- r:
			continue
		default:
		}
		if workers < maxInFlightPerConn {
			workers++
			handlers.Add(1)
			go worker()
		}
		reqs <- r
	}
}

// serve runs one request on a handler worker, writes its response, and
// gives back what the request and its result hold.
func (s *Server) serve(conn net.Conn, wmu *sync.Mutex, r request) {
	mSrvRequests.Inc()
	start := time.Now()
	resp, result := s.dispatch(r.frame)
	mSrvHandle.Since(start)
	wmu.Lock()
	nw, err := resp.writeTo(conn)
	wmu.Unlock()
	resp.release()
	if result != nil {
		result.Release()
	}
	bufpool.Put(r.buf)
	mSrvInflight.Add(-1)
	if err != nil {
		// The response stream is dead; tear the connection down so the
		// read loop stops feeding it.
		conn.Close()
	} else {
		mSrvTxBytes.Add(uint64(nw))
	}
}

// dispatch runs the handler and encodes its answer, and returns with it the
// handler's result when that is to be released once the answer is written.
// A result that cannot be encoded or would not fit a frame has put no byte
// on the wire yet, so it fails that one call with an error frame, not the
// whole connection.
func (s *Server) dispatch(req frame) (*Encoder, releaser) {
	s.mu.RLock()
	h, ok := s.handlers[string(req.method)]
	s.mu.RUnlock()
	if !ok {
		return errorFrame(req.id, "rpc: unknown method "+string(req.method)), nil
	}
	out, err := h(req.payload)
	if err != nil {
		return errorFrame(req.id, err.Error()), nil
	}
	result, _ := out.(releaser)
	resp, err := encodeFrame(kindResult, req.id, "", out)
	switch {
	case err == nil:
		return resp, result
	case errors.Is(err, ErrFrameTooLarge):
		return errorFrame(req.id, "rpc: result exceeds maximum frame size"), result
	}
	return errorFrame(req.id, "rpc: encode result: "+err.Error()), result
}

// errorFrame encodes a handler's failure; the text reaches the client
// verbatim unless it is itself too long for a frame.
func errorFrame(id uint64, msg string) *Encoder {
	mSrvErrors.Inc()
	e, err := encodeFrame(kindError, id, "", msg)
	if err != nil {
		e, _ = encodeFrame(kindError, id, "", "rpc: error text exceeds maximum frame size")
	}
	return e
}

// Close stops the listener and all connections, waiting for handlers.
func (s *Server) Close() error {
	s.lnMu.Lock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.lnMu.Unlock()
	s.wg.Wait()
	return nil
}

// Client is a multiplexing connection to a Server. Safe for concurrent
// use: every Call registers in an ID → pending-call map and a single
// reader goroutine routes each response frame to its caller, so
// concurrent Calls overlap on the wire instead of queueing behind each
// other.
//
// A call waits for its reply or for the client to die; there is no
// per-call timeout. Stream desync — a read failure, an undecodable frame,
// or a response ID matching no pending call — breaks the client; then
// every pending and subsequent Call fails fast with ErrBroken and the
// caller re-dials.
type Client struct {
	conn net.Conn

	wmu sync.Mutex // serialises request frames

	mu      sync.Mutex
	pending map[uint64]chan frame
	next    uint64
	err     error // sticky: first fatal error (ErrBroken... or ErrClosed)
	closed  bool
}

// replyChans recycles the one-slot channels a call's reply is delivered
// on. A channel is either sent to once, by the read loop, or closed, by
// fatal; only one that carried its reply comes back here.
var replyChans = sync.Pool{New: func() any { return make(chan frame, 1) }}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]chan frame),
	}
	go c.readLoop()
	return c, nil
}

// readLoop is the client's single response reader: it routes every frame
// to its pending call by ID and breaks the client on anything it cannot
// account for. It reads every frame into a buffer of its own that is never
// recycled, because a wire-decoded result aliases its frame and outlives
// the Call that returned it.
func (c *Client) readLoop() {
	br := bufio.NewReader(c.conn)
	for {
		body, _, err := readFrame(br, false)
		if err != nil {
			c.fatal(fmt.Errorf("%w: read: %w", ErrBroken, err))
			return
		}
		mCliRxBytes.Add(uint64(4 + len(body)))
		resp, err := parseFrame(body)
		if err == nil && resp.kind != kindResult && resp.kind != kindError {
			err = fmt.Errorf("frame kind %d", resp.kind)
		}
		if err != nil {
			// The frame cannot be attributed to any call; its owner would
			// hang forever if we dropped it silently.
			c.fatal(fmt.Errorf("%w: decode response: %w", ErrBroken, err))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.id]
		delete(c.pending, resp.id)
		c.mu.Unlock()
		if !ok {
			c.fatal(fmt.Errorf("%w: response id %d matches no call", ErrBroken, resp.id))
			return
		}
		ch <- resp // buffered: never blocks
	}
}

// fatal records the client's first terminal error, closes the socket, and
// fails every pending call by closing its channel.
func (c *Client) fatal(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		if errors.Is(err, ErrBroken) {
			mCliBroken.Inc()
		}
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.mu.Unlock()
	c.conn.Close()
}

// Call invokes method with params and decodes the result into result
// (which may be nil to discard). Concurrent Calls share the connection.
func (c *Client) Call(method string, params any, result any) error {
	mCliCalls.Inc()
	mCliInflight.Add(1)
	start := time.Now()
	defer func() {
		mCliInflight.Add(-1)
		mCliCall.Since(start)
	}()

	// Encode before touching the wire: a request that cannot be encoded or
	// does not fit a frame simply never happened, and must not poison the
	// connection.
	req, err := encodeFrame(kindRequest, 0, method, params)
	if err != nil {
		return fmt.Errorf("rpc: encode params: %w", err) // ErrFrameTooLarge included
	}

	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		req.release()
		return err
	}
	c.next++
	id := c.next
	ch := replyChans.Get().(chan frame)
	c.pending[id] = ch
	c.mu.Unlock()

	binary.BigEndian.PutUint64(req.buf[5:], id) // after the length and kind
	c.wmu.Lock()
	nw, err := req.writeTo(c.conn)
	c.wmu.Unlock()
	req.release()
	if err != nil {
		ferr := fmt.Errorf("%w: write: %w", ErrBroken, err)
		c.fatal(ferr)
		return ferr
	}
	mCliTxBytes.Add(uint64(nw))

	in, ok := <-ch
	if !ok {
		return c.lastErr()
	}
	replyChans.Put(ch)
	return decodeResult(in, result)
}

// decodeResult turns a response frame into Call's return.
func decodeResult(in frame, result any) error {
	if in.kind == kindError {
		se := new(ServerError)
		if err := in.payload.Decode(&se.Msg); err != nil {
			return fmt.Errorf("rpc: decode error reply: %w", err)
		}
		return se
	}
	if result == nil {
		return nil
	}
	return in.payload.Decode(result)
}

func (c *Client) lastErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrClosed
}

// Close shuts the connection down; pending calls fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	if c.err == nil {
		c.err = ErrClosed
	}
	c.mu.Unlock()
	c.fatal(ErrClosed) // drains pending, closes the socket; keeps the first recorded error
	return nil
}
