package remote

import (
	"errors"
	"fmt"
	"sync"
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

// errConnClosed is returned by calls on (or parked in backoff under) a
// connection its owner closed.
var errConnClosed = errors.New("remote: connection closed")

// conn is an rpc connection that survives transport failures: when the
// underlying client is poisoned with rpc.ErrBroken, the next call re-dials
// with capped exponential backoff and retries. That is sound for every
// user in this package because nothing secret lives in the connection —
// keys survive reconnects, the gateway handshake is idempotent, and
// payloads are sealed end to end — so a dropped TCP stream costs latency,
// never safety. Application-level rejections from the server are returned
// immediately, never retried.
type conn struct {
	addr string
	done chan struct{} // closed by close; interrupts redial backoff

	mu      sync.Mutex
	c       *rpc.Client
	closed  bool
	redials int
	calls   map[string]int // logical calls per method, retries not counted
}

// dial opens a redialing connection to addr.
func dial(addr string) (*conn, error) {
	c, err := rpc.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}
	return &conn{addr: addr, c: c, done: make(chan struct{}), calls: make(map[string]int)}, nil
}

// client returns the live rpc client, re-dialing if the previous one was
// torn down.
func (k *conn) client() (*rpc.Client, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return nil, errConnClosed
	}
	if k.c == nil {
		c, err := rpc.Dial(k.addr)
		if err != nil {
			return nil, err
		}
		k.c = c
		k.redials++
		mRedials.Inc()
	}
	return k.c, nil
}

// invalidate drops a broken client so the next attempt re-dials.
func (k *conn) invalidate(old *rpc.Client) {
	k.mu.Lock()
	if k.c == old {
		old.Close()
		k.c = nil
	}
	k.mu.Unlock()
}

// call performs one RPC with redial-and-retry on broken transports. The
// lock is never held across the blocking Call, so concurrent calls share
// the multiplexed connection; the backoff wait aborts the moment the
// connection is closed.
func (k *conn) call(method string, params, result any) error {
	k.mu.Lock()
	k.calls[method]++
	k.mu.Unlock()
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
		c, err = k.client()
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
		k.invalidate(c)
	}
	return fmt.Errorf("remote: %s unreachable after %d attempts: %w", k.addr, redialAttempts, err)
}

// close releases the connection. A call parked in redial backoff returns
// promptly instead of waiting the window out.
func (k *conn) close() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if !k.closed {
		k.closed = true
		close(k.done)
	}
	if k.c == nil {
		return nil
	}
	err := k.c.Close()
	k.c = nil
	return err
}
