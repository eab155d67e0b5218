// Package fpga models a cloud FPGA device as seen by the Salus threat
// model: a fabric with a unique Device DNA, an eFUSE key store written once
// during manufacturing, an Internal Configuration Access Port (ICAP) with a
// readback capability that Salus requires to be disabled (§5.1.2), an
// internal bitstream decryption engine that no programmable logic can
// observe (§2.3), and one or more reconfigurable partitions.
//
// Partial reconfiguration semantics follow the paper's Observation 2: a
// partial bitstream covers the configuration of *every* cell in the dynamic
// area, so programming a partition replaces its previous content entirely —
// there is no way to patch part of a loaded CL while keeping the rest.
package fpga

import (
	"errors"
	"fmt"
	"sync"

	"salus/internal/bitstream"
	"salus/internal/netlist"
)

// DNA is the factory-programmed unique device identifier, readable through
// the DNA_PORTE2 primitive. It is public: the CSP tells the customer which
// device they rented, and the CL checks it during attestation.
type DNA string

// Errors surfaced by the device.
var (
	// ErrReadbackDisabled is returned by ICAP readback when the
	// manufacturer ships the readback-disabled ICAP IP Salus requires.
	ErrReadbackDisabled = errors.New("fpga: ICAP readback capability disabled")
	// ErrNotFused is returned when an encrypted bitstream arrives at a
	// device whose eFUSE was never programmed.
	ErrNotFused = errors.New("fpga: no device key fused")
	// ErrBadBitstream wraps container-level load failures.
	ErrBadBitstream = errors.New("fpga: bitstream rejected")
	// ErrNoCL is returned when a transaction targets an empty partition.
	ErrNoCL = errors.New("fpga: no custom logic loaded")
	// ErrUnknownLogic is returned when no factory is registered for the
	// loaded bitstream's logic identity.
	ErrUnknownLogic = errors.New("fpga: no factory for logic identity")
)

// CL is the runtime behaviour of a loaded custom logic: everything the
// host can reach over PCIe funnels into HandleTransaction.
type CL interface {
	// LogicID identifies the instantiated design.
	LogicID() string
	// HandleTransaction processes one host-issued transaction (an encoded
	// channel message) and returns the response bytes.
	HandleTransaction(req []byte) ([]byte, error)
}

// CLConfig is what the fabric hands a factory when instantiating a CL from
// freshly programmed configuration memory.
type CLConfig struct {
	// Image is the decrypted, validated configuration content. Factories
	// read BRAM initial values (e.g. the injected secrets) from it.
	Image *bitstream.Image
	// DNA is the device identity, wired to the CL through DNA_PORTE2.
	DNA DNA
}

// CLFactory instantiates the runtime for a logic identity.
type CLFactory func(CLConfig) (CL, error)

var (
	factoryMu sync.RWMutex
	factories = make(map[string]CLFactory)
)

// RegisterLogic installs the factory for a logic identity. It models the
// fact that a bitstream's configuration bits *are* the design: once the
// frames for identity id are programmed, the fabric behaves as that design.
func RegisterLogic(id string, f CLFactory) {
	factoryMu.Lock()
	defer factoryMu.Unlock()
	factories[id] = f
}

func lookupLogic(id string) (CLFactory, bool) {
	factoryMu.RLock()
	defer factoryMu.RUnlock()
	f, ok := factories[id]
	return f, ok
}

// Option configures a Device at manufacturing time.
type Option func(*Device)

// WithReadbackEnabled manufactures the device with the legacy ICAP that
// still allows configuration readback — the security weakness all prior
// FPGA TEEs suffer from (§5.1.2). Used by the ablation tests.
func WithReadbackEnabled() Option {
	return func(d *Device) { d.readback = true }
}

// WithPartitions manufactures a device exposing n reconfigurable
// partitions (§4.7 extension). Default is 1.
func WithPartitions(n int) Option {
	return func(d *Device) {
		if n > 0 {
			d.parts = make([]partition, n)
		}
	}
}

// partition is one reconfigurable region and its instantiated CL.
type partition struct {
	image *bitstream.Image
	cl    CL
}

// Device is one manufactured FPGA.
type Device struct {
	profile netlist.DeviceProfile
	dna     DNA

	mu       sync.Mutex
	efuse    []byte // device key; nil until fused
	readback bool
	parts    []partition
	loads    int
}

// Manufacture creates a device with the given DNA. The device key is fused
// separately (FuseKey), as the manufacturing flow in §4.2 does.
func Manufacture(profile netlist.DeviceProfile, dna DNA, opts ...Option) (*Device, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	if dna == "" {
		return nil, fmt.Errorf("fpga: empty DNA")
	}
	d := &Device{profile: profile, dna: dna, parts: make([]partition, 1)}
	for _, o := range opts {
		o(d)
	}
	return d, nil
}

// FuseKey writes the AES device key into the eFUSE. It can be written only
// once; eFUSEs are one-time programmable.
func (d *Device) FuseKey(key []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.efuse != nil {
		return fmt.Errorf("fpga: eFUSE already programmed")
	}
	if len(key) == 0 {
		return fmt.Errorf("fpga: empty device key")
	}
	d.efuse = append([]byte(nil), key...)
	return nil
}

// DNA returns the device identity (the DNA_PORTE2 read).
func (d *Device) DNA() DNA { return d.dna }

// Profile returns the device geometry.
func (d *Device) Profile() netlist.DeviceProfile { return d.profile }

// Partitions returns the number of reconfigurable partitions.
func (d *Device) Partitions() int { return len(d.parts) }

// Loads returns how many successful programming operations occurred.
func (d *Device) Loads() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.loads
}

// Reset models a device power cycle: every reconfigurable partition loses
// its configuration (and with it any loaded secrets), while the eFUSE key
// and DNA — true hardware state — persist.
func (d *Device) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.parts {
		d.parts[i] = partition{}
	}
}

// ICAP returns the configuration port the shell uses.
func (d *Device) ICAP() *ICAP { return &ICAP{dev: d} }

// CL returns the custom logic loaded in partition idx.
func (d *Device) CL(idx int) (CL, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if idx < 0 || idx >= len(d.parts) {
		return nil, fmt.Errorf("fpga: partition %d out of range", idx)
	}
	if d.parts[idx].cl == nil {
		return nil, ErrNoCL
	}
	return d.parts[idx].cl, nil
}

// ICAP is the Internal Configuration Access Port. The shell holds an ICAP
// handle; whether it can also read configuration back depends on how the
// device was manufactured.
type ICAP struct {
	dev *Device
}

// Program loads a (possibly encrypted) partial bitstream into partition 0.
func (i *ICAP) Program(data []byte) error { return i.ProgramPartition(0, data) }

// ProgramPartition loads a partial bitstream into the given partition.
// Encrypted containers are decrypted *inside the fabric* with the eFUSE
// key; the plaintext never crosses the ICAP boundary outward. The load
// replaces the partition's entire previous content (Observation 2).
func (i *ICAP) ProgramPartition(idx int, data []byte) error {
	d := i.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	if idx < 0 || idx >= len(d.parts) {
		return fmt.Errorf("fpga: partition %d out of range", idx)
	}

	// The decoded image borrows payload, which therefore has to be the
	// fabric's own: the one plaintext the internal decryption produces, or a
	// private copy of a plaintext container the shell still holds.
	var payload []byte
	if bitstream.IsEncrypted(data) {
		if d.efuse == nil {
			return ErrNotFused
		}
		pt, err := bitstream.Decrypt(data, d.efuse, d.profile.Name)
		if err != nil {
			return fmt.Errorf("%w: internal decryption failed: %v", ErrBadBitstream, err)
		}
		payload = pt
	} else {
		payload = append([]byte(nil), data...)
	}

	im, err := bitstream.Decode(payload)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadBitstream, err)
	}
	if im.Header.IDCode != d.profile.IDCode || im.Header.Device != d.profile.Name {
		return fmt.Errorf("%w: bitstream for %s/%#x, device is %s/%#x",
			ErrBadBitstream, im.Header.Device, im.Header.IDCode, d.profile.Name, d.profile.IDCode)
	}
	if im.Frames() != d.profile.FramesPerSLR {
		return fmt.Errorf("%w: %d frames, partition holds %d — partial reconfiguration must cover the whole dynamic area",
			ErrBadBitstream, im.Frames(), d.profile.FramesPerSLR)
	}

	factory, ok := lookupLogic(im.Header.LogicID)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownLogic, im.Header.LogicID)
	}
	cl, err := factory(CLConfig{Image: im, DNA: d.dna})
	if err != nil {
		return fmt.Errorf("fpga: instantiating %q: %w", im.Header.LogicID, err)
	}

	// Full overwrite: the previous CL, including any secrets it held in
	// BRAM, ceases to exist.
	d.parts[idx] = partition{image: im, cl: cl}
	d.loads++
	return nil
}

// Readback returns the plaintext configuration content of a partition —
// exactly the snooping capability Salus requires the manufacturer to
// remove. On a Salus-compliant device it fails with ErrReadbackDisabled.
func (i *ICAP) Readback(idx int) ([]byte, error) {
	d := i.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.readback {
		return nil, ErrReadbackDisabled
	}
	if idx < 0 || idx >= len(d.parts) || d.parts[idx].image == nil {
		return nil, ErrNoCL
	}
	return d.parts[idx].image.Encode(), nil
}
