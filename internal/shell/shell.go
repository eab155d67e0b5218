// Package shell models the CSP-maintained FPGA shell of §2.2: the
// privileged "operating system" of the device that programs reconfigurable
// partitions through ICAP and carries every host↔CL transaction. In the
// Salus threat model the shell is the principal adversary — it sees all
// traffic, may tamper with or replay it, may substitute bitstreams, and may
// try to read configuration back. The package therefore ships both the
// honest shell and an Interceptor mechanism through which the attack suite
// (attacks.go) exercises each capability in Table 3's attack columns.
package shell

import (
	"errors"
	"fmt"
	"sync"

	"salus/internal/fpga"
	"salus/internal/simnet"
	"salus/internal/simtime"
)

// ErrNoDevice is returned when the shell has no attached device.
var ErrNoDevice = errors.New("shell: no device attached")

// Interceptor is the hook a compromised shell uses on the traffic it
// mediates. Every method may return a modified payload (or the input
// unchanged). A nil Interceptor means an honest shell, which looks at
// nothing and keeps nothing: snooping is an adversary capability, installed
// like any other attack (see Recorder).
//
// Borrow contract: every payload an Interceptor sees is borrowed for the
// duration of the call. The host may overwrite a request frame as soon as
// the transaction returns (the job path reuses one DMA burst buffer), so
// an Interceptor that keeps bytes, or returns bytes it means to keep
// using, copies them.
type Interceptor interface {
	// OnLoad sees (and may replace) a bitstream before it reaches ICAP.
	OnLoad(data []byte) []byte
	// OnRequest sees (and may replace) a host→CL transaction.
	OnRequest(req []byte) []byte
	// OnResponse sees (and may replace) a CL→host response.
	OnResponse(resp []byte) []byte
}

// Shell mediates all access to one FPGA device.
type Shell struct {
	dev         *fpga.Device
	interceptor Interceptor

	clock *simtime.Clock
	link  simnet.Link

	mu    sync.Mutex
	stats Stats
}

// Stats is the shell's operational accounting — what a real shell exports
// to the CSP's monitoring plane.
type Stats struct {
	Loads        int // bitstream loads attempted
	LoadFailures int
	Transactions int // host↔CL round trips
	TxnFailures  int
	BytesLoaded  int
	BytesIn      int // host → CL payload bytes
	BytesOut     int // CL → host payload bytes
}

// Option configures a Shell.
type Option func(*Shell)

// WithInterceptor installs attack hooks.
func WithInterceptor(i Interceptor) Option {
	return func(s *Shell) { s.interceptor = i }
}

// WithTiming charges PCIe transfer time for every operation to the clock.
func WithTiming(clock *simtime.Clock, link simnet.Link) Option {
	return func(s *Shell) { s.clock = clock; s.link = link }
}

// New attaches a shell to a device.
func New(dev *fpga.Device, opts ...Option) *Shell {
	s := &Shell{dev: dev, link: simnet.PCIe}
	for _, o := range opts {
		o(s)
	}
	return s
}

// DNA reports the device identity — the value the CSP hands the customer
// when the instance is created. A lying CSP is caught by the CL attestation
// (the MAC binds the DNA the CL reads from silicon).
func (s *Shell) DNA() fpga.DNA { return s.dev.DNA() }

// Device returns the managed device (the CSP owns the board).
func (s *Shell) Device() *fpga.Device { return s.dev }

// LoadCL forwards a (normally encrypted) partial bitstream to ICAP for
// partition 0.
func (s *Shell) LoadCL(data []byte) error { return s.LoadCLPartition(0, data) }

// LoadCLPartition forwards a partial bitstream to ICAP for a partition.
func (s *Shell) LoadCLPartition(idx int, data []byte) error {
	if s.dev == nil {
		return ErrNoDevice
	}
	if s.clock != nil {
		s.link.Send(s.clock, len(data))
	}
	s.mu.Lock()
	s.stats.Loads++
	s.stats.BytesLoaded += len(data)
	s.mu.Unlock()
	if s.interceptor != nil {
		data = s.interceptor.OnLoad(data)
	}
	err := s.dev.ICAP().ProgramPartition(idx, data)
	if err != nil {
		s.mu.Lock()
		s.stats.LoadFailures++
		s.mu.Unlock()
	}
	return err
}

// Stats returns a snapshot of the shell's counters.
func (s *Shell) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Transact carries one host transaction to partition 0's CL and returns
// the response.
//
//lint:allow sealed-boundary Transact IS the boundary carrier; sealing is its callers' obligation, enforced at their call sites
func (s *Shell) Transact(req []byte) ([]byte, error) { return s.TransactPartition(0, req) }

// TransactPartition carries one host transaction to a partition's CL.
func (s *Shell) TransactPartition(idx int, req []byte) ([]byte, error) {
	if s.dev == nil {
		return nil, ErrNoDevice
	}
	if s.interceptor != nil {
		req = s.interceptor.OnRequest(req)
	}
	s.mu.Lock()
	s.stats.Transactions++
	s.stats.BytesIn += len(req)
	s.mu.Unlock()
	cl, err := s.dev.CL(idx)
	if err != nil {
		s.mu.Lock()
		s.stats.TxnFailures++
		s.mu.Unlock()
		return nil, fmt.Errorf("shell: %w", err)
	}
	resp, err := cl.HandleTransaction(req)
	if err != nil {
		s.mu.Lock()
		s.stats.TxnFailures++
		s.mu.Unlock()
		return nil, fmt.Errorf("shell: %w", err)
	}
	s.mu.Lock()
	s.stats.BytesOut += len(resp)
	s.mu.Unlock()
	if s.interceptor != nil {
		resp = s.interceptor.OnResponse(resp)
	}
	if s.clock != nil {
		s.link.RoundTrip(s.clock, len(req), len(resp))
	}
	return resp, nil
}

// AttemptReadback tries to scan the loaded CL configuration through ICAP —
// the snooping attack §5.1.2 closes by requiring a readback-disabled ICAP.
func (s *Shell) AttemptReadback(idx int) ([]byte, error) {
	if s.dev == nil {
		return nil, ErrNoDevice
	}
	return s.dev.ICAP().Readback(idx)
}
