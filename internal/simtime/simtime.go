// Package simtime provides the virtual clock that the Salus simulation
// charges time to.
//
// The reproduction mixes two kinds of time, and one rule says which is
// which: bitstream-sized work is charged by size, constant-size work by
// measurement.
//
//   - In-enclave compute, all executed for real. The three operations that
//     stream the whole partial bitstream (digest, manipulation, AES-GCM) run
//     once, untimed, and are charged SizeCost: bytes over the operation's
//     native throughput, times a slowdown factor modelling execution inside
//     an enclave library OS (the paper runs RapidWright under Occlum and
//     reports that "directly wrapping RapidWright inside an enclave without
//     tailoring results in an inefficient implementation"). The modelled
//     boot thus never depends on how fast this host, or this code, is.
//     Constant-size enclave crypto (ECDH, EREPORT, key unwrap) is measured
//     with the wall clock and scaled (Measure).
//
//   - Modelled latency that our testbed does not have (WAN round trips to a
//     DCAP server, intra-cloud links, PCIe DMA), charged analytically.
//
// Both are accumulated on a Clock so the booting-time breakdown (Figure 9)
// can be reported as a single consistent timeline.
package simtime

import (
	"fmt"
	"sync"
	"time"
)

// Clock accumulates virtual time. The zero value is a usable clock at
// virtual time zero with no enclave slowdown. A Clock is safe for
// concurrent use.
type Clock struct {
	mu      sync.Mutex
	elapsed time.Duration
}

// NewClock returns a clock starting at virtual time zero.
func NewClock() *Clock { return &Clock{} }

// Advance charges d of modelled time to the clock. Negative durations are
// ignored rather than rewinding time.
func (c *Clock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.elapsed += d
	c.mu.Unlock()
}

// Elapsed returns the total virtual time charged so far.
func (c *Clock) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.elapsed
}

// Measure runs fn, measures its real duration, scales it by slowdown
// (a multiplier >= 0; 1 means charge wall time as-is), charges the result to
// the clock, and returns the charged duration.
func (c *Clock) Measure(slowdown float64, fn func()) time.Duration {
	start := time.Now()
	fn()
	charged := time.Duration(float64(time.Since(start)) * max(slowdown, 0))
	c.Advance(charged)
	return charged
}

// Native throughputs, in bytes per second, of the three bitstream-sized boot
// operations on the reference machine against which the ×16 and ×440
// slowdowns were calibrated (EXPERIMENTS.md). The boot harness (smapp)
// charges from these.
const (
	HashBytesPerSec  = 1.3e9  // SHA-256 digest
	GCMBytesPerSec   = 1.5e9  // AES-GCM-256 seal
	ManipBytesPerSec = 1.05e9 // parse and validate, inject, re-serialise
)

// SizeCost returns the modelled duration of an operation that natively
// streams bytes at bytesPerSec and is modelled to run slowdown times slower.
func SizeCost(bytes, bytesPerSec, slowdown float64) time.Duration {
	return time.Duration(bytes / bytesPerSec * slowdown * float64(time.Second))
}

// Span measures a section of virtual time: it records the clock on creation
// and reports the delta when closed.
type Span struct {
	clock *Clock
	start time.Duration
}

// StartSpan begins measuring virtual time on the clock.
func (c *Clock) StartSpan() Span {
	return Span{clock: c, start: c.Elapsed()}
}

// Elapsed returns the virtual time charged since the span started.
func (s Span) Elapsed() time.Duration {
	return s.clock.Elapsed() - s.start
}

// FormatDuration renders a duration the way the paper's plots label them:
// microseconds below 10ms, milliseconds below 10s, seconds above.
func FormatDuration(d time.Duration) string {
	switch {
	case d < 10*time.Millisecond:
		return fmt.Sprintf("%.0f µs", float64(d)/float64(time.Microsecond))
	case d < 10*time.Second:
		return fmt.Sprintf("%.0f ms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1f s", d.Seconds())
	}
}
