package remote

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"salus/internal/metrics"
	"salus/internal/rpc"
)

// mRedials counts re-dials after broken transports, process-wide.
var mRedials = metrics.Default().Counter("salus_remote_redials_total")

// Reconnect policy for every redialing connection (owner sessions and the
// manufacturer key client alike): how many dial-and-retry rounds one call
// may burn before surfacing the transport error, and the backoff — doubled
// per round but capped at redialMax, so a long outage never grows the wait
// unboundedly. Variables, not constants, so tests can compress the schedule.
var (
	redialAttempts = 4
	redialBase     = 50 * time.Millisecond
	redialMax      = 1 * time.Second
)

// dialRPC opens one rpc connection. A variable so tests can hold a dial.
var dialRPC = rpc.Dial

// errConnClosed is returned by calls on (or parked in backoff under) a
// connection its owner closed.
var errConnClosed = errors.New("remote: connection closed")

// conn is a stripe of rpc connections to one address that survives
// transport failures. It holds runtime.GOMAXPROCS(0) multiplexed clients,
// counted once at dial, and each call takes the next one round-robin: one
// connection has one reader at a time at each end — the server's read
// loop, the client caller holding the read role — and those two readers
// cap whatever rides it at about one processor's worth of work.
//
// When a slot's client is poisoned with rpc.ErrBroken, the next call on
// that slot re-dials it with capped exponential backoff and retries; the
// other slots are untouched. That is sound for every user in this package
// because nothing secret lives in the connection — keys survive
// reconnects, the gateway handshake is idempotent, and payloads are sealed
// end to end — so a dropped TCP stream costs latency, never safety.
// Application-level rejections from the server are returned immediately,
// never retried.
type conn struct {
	addr   string
	done   chan struct{} // closed by close; interrupts redial backoff and waits
	closed atomic.Bool
	next   atomic.Uint32
	slots  []slot
}

// slot is one connection of the stripe. Calls read its live client without
// a lock; mu guards only the redial, which runs outside it.
type slot struct {
	c atomic.Pointer[rpc.Client] // nil once torn down, until redialed

	mu      sync.Mutex
	dialing *redial // the redial in flight, if any
	redials int     // successful redials
}

// redial is one slot's dial in flight; c and err are set before done is
// closed.
type redial struct {
	done chan struct{}
	c    *rpc.Client
	err  error
}

// dial opens a redialing connection stripe to addr.
func dial(addr string) (*conn, error) {
	k := &conn{addr: addr, done: make(chan struct{}), slots: make([]slot, runtime.GOMAXPROCS(0))}
	for i := range k.slots {
		c, err := dialRPC(addr)
		if err != nil {
			k.close()
			return nil, fmt.Errorf("remote: %w", err)
		}
		k.slots[i].c.Store(c)
	}
	return k, nil
}

// client returns the slot's live rpc client. A torn-down slot gets one
// redial, run by a goroutine of its own; every caller of the slot waits for
// that dial or for close, whichever ends first, so a hung dial holds up
// only the calls that picked its slot, and never close.
func (k *conn) client(s *slot) (*rpc.Client, error) {
	if k.closed.Load() {
		return nil, errConnClosed
	}
	if c := s.c.Load(); c != nil {
		return c, nil
	}
	s.mu.Lock()
	if c := s.c.Load(); c != nil { // a redial finished meanwhile
		s.mu.Unlock()
		return c, nil
	}
	r := s.dialing
	if r == nil {
		r = &redial{done: make(chan struct{})}
		s.dialing = r
		go k.redial(s, r)
	}
	s.mu.Unlock()
	select {
	case <-r.done:
		return r.c, r.err
	case <-k.done:
		return nil, errConnClosed
	}
}

// redial dials a torn-down slot and installs the client, unless the
// connection was closed meanwhile.
func (k *conn) redial(s *slot, r *redial) {
	c, err := dialRPC(k.addr)
	s.mu.Lock()
	s.dialing = nil
	installed := err == nil && !k.closed.Load()
	if installed {
		s.c.Store(c)
		s.redials++
		mRedials.Inc()
	}
	s.mu.Unlock()
	if err == nil && !installed {
		c.Close()
		c, err = nil, errConnClosed
	}
	r.c, r.err = c, err
	close(r.done)
}

// invalidate drops a broken client so the slot's next call re-dials.
func (k *conn) invalidate(s *slot, old *rpc.Client) {
	if s.c.CompareAndSwap(old, nil) {
		old.Close()
	}
}

// call performs one RPC on the next slot, with redial-and-retry on broken
// transports. No lock is held across the blocking Call, so concurrent
// calls share each multiplexed connection; the backoff wait aborts the
// moment the connection is closed.
func (k *conn) call(method string, params, result any) error {
	s := &k.slots[k.next.Add(1)%uint32(len(k.slots))]
	backoff := redialBase
	var err error
	for attempt := 0; attempt < redialAttempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-k.done:
				t.Stop()
				return fmt.Errorf("%w during redial backoff", errConnClosed)
			}
			if backoff *= 2; backoff > redialMax {
				backoff = redialMax
			}
		}
		var c *rpc.Client
		c, err = k.client(s)
		if errors.Is(err, errConnClosed) {
			return err
		}
		if err != nil {
			continue // the server may be coming back
		}
		err = c.Call(method, params, result)
		if !errors.Is(err, rpc.ErrBroken) {
			// Success, or a deliberate server rejection or an oversized
			// frame: the transport is fine, retrying cannot help.
			return err
		}
		k.invalidate(s, c)
	}
	return fmt.Errorf("remote: %s unreachable after %d attempts: %w", k.addr, redialAttempts, err)
}

// close releases every connection of the stripe. A call parked in redial
// backoff or waiting on a redial returns promptly instead of waiting it
// out; a dial still in flight closes its client when it lands.
func (k *conn) close() error {
	if k.closed.Swap(true) {
		return nil
	}
	close(k.done)
	var err error
	for i := range k.slots {
		s := &k.slots[i]
		s.mu.Lock() // orders this against a redial installing its client
		c := s.c.Swap(nil)
		s.mu.Unlock()
		if c != nil {
			err = errors.Join(err, c.Close())
		}
	}
	return err
}
