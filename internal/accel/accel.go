// Package accel implements the five benchmark accelerators of the paper
// (Table 4) as functional models: each kernel really computes its result in
// Go, and the surrounding Core models the accelerator's hardware shell —
// an AXI4-Lite register file, CL-attached device memory reached by DMA, and
// the AES-CTR streaming encryption/decryption logic the paper adds at the
// memory interface for TEE operation (§6.4).
//
// Following Table 4, every kernel decrypts its inbound traffic when a data
// key has been provisioned; only Affine and Rendering also encrypt their
// outbound traffic (for the ML-style kernels the paper leaves weights and
// outputs in plaintext).
package accel

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"salus/internal/merkle"
	"salus/internal/netlist"
)

// Register map exposed on the accelerator's control interface. Data-key and
// IV registers must only ever be written through the secure register
// channel; everything else may use the direct channel.
const (
	RegCtrl    uint32 = 0x00 // write 1 to start a run
	RegStatus  uint32 = 0x08 // see Status* values
	RegKey0    uint32 = 0x10 // data key bits [63:0]
	RegKey1    uint32 = 0x18 // data key bits [127:64]
	RegIV0     uint32 = 0x20 // CTR IV bits [63:0]
	RegIV1     uint32 = 0x28 // CTR IV bits [127:64]
	RegInAddr  uint32 = 0x30
	RegInLen   uint32 = 0x38
	RegOutAddr uint32 = 0x40
	RegOutLen  uint32 = 0x48 // read-only: bytes produced by the last run
	RegParam0  uint32 = 0x50
	RegParam1  uint32 = 0x58
	RegParam2  uint32 = 0x60
	RegParam3  uint32 = 0x68
)

// Status register values.
const (
	StatusIdle  uint64 = 0
	StatusDone  uint64 = 1
	StatusError uint64 = 2
)

// CtrlStart triggers a run when written to RegCtrl.
const CtrlStart uint64 = 1

// MemBytes is the size of the CL-attached device memory window.
const MemBytes = 16 << 20

// Errors.
var (
	ErrMemRange = errors.New("accel: device memory access out of range")
	ErrBadReg   = errors.New("accel: no such register")
)

// Kernel is the computational heart of an accelerator: a pure function over
// plaintext bytes, plus its implementation metadata.
type Kernel interface {
	// Name is the benchmark name as in Table 4 (e.g. "Conv").
	Name() string
	// Module reports the synthesised resource footprint (Table 5 row).
	Module() netlist.ModuleSpec
	// EncryptOutput reports whether outbound traffic is encrypted (Table 4).
	EncryptOutput() bool
	// Compute runs the kernel on plaintext input with the four parameter
	// registers and returns the plaintext output.
	Compute(params [4]uint64, input []byte) ([]byte, error)
}

// Device is the accelerator as the SM logic sees it: registers and memory.
type Device interface {
	Name() string
	WriteReg(addr uint32, v uint64) error
	ReadReg(addr uint32) (uint64, error)
	WriteMem(addr uint64, data []byte) error
	// ReadMem fills dst from device memory starting at addr, so the caller
	// (the CL's DMA engine) decides where the bytes land.
	ReadMem(addr uint64, dst []byte) error
}

// Core wraps a Kernel with the hardware shell: register file, device
// memory, and the memory-interface crypto engine. An optional integrity
// tree (NewProtectedCore) guards the device memory against physical/DMA
// tampering — the §3.1 attack-2 defence the paper delegates to the
// developer.
type Core struct {
	kernel Kernel

	mu     sync.Mutex
	regs   map[uint32]uint64
	mem    []byte
	tree   *merkle.Tree // nil = unprotected memory
	keySet bool
	status uint64
	outLen uint64
	runs   int
	jobCtr uint32 // keyed runs since the last IV install (per-job IV schedule)

	// The memory-interface engine's loaded key: block is the schedule of
	// the key the key registers held when it was expanded (blockKey), so it
	// is re-expanded only when they change. iv is the current run's CTR IV;
	// it lives here because the CTR stream needs a heap-resident IV.
	block    cipher.Block
	blockKey [2]uint64
	iv       [16]byte
}

// IntegrityBlock is the protection granularity of the memory integrity
// tree.
const IntegrityBlock = 64

// NewCore instantiates the accelerator for a kernel.
func NewCore(k Kernel) *Core {
	return &Core{
		kernel: k,
		regs:   make(map[uint32]uint64),
		mem:    make([]byte, MemBytes),
	}
}

// NewProtectedCore instantiates the accelerator with a Bonsai-Merkle-style
// integrity tree over its device memory: every DMA read and every kernel
// input fetch is verified against the on-chip root, so off-chip tampering
// surfaces as an integrity error instead of silently corrupt results.
func NewProtectedCore(k Kernel) (*Core, error) {
	c := NewCore(k)
	t, err := merkle.New(c.mem, IntegrityBlock)
	if err != nil {
		return nil, err
	}
	c.tree = t
	return c, nil
}

// Protected reports whether the memory integrity tree is active.
func (c *Core) Protected() bool { return c.tree != nil }

// blockRange returns the protected blocks overlapping [addr, addr+n).
func blockRange(addr uint64, n int) (first, last int) {
	if n <= 0 {
		return 0, -1
	}
	return int(addr / IntegrityBlock), int((addr + uint64(n) - 1) / IntegrityBlock)
}

// syncBlocks refreshes tree leaves after a write; callers hold c.mu.
func (c *Core) syncBlocks(addr uint64, n int) {
	if c.tree == nil {
		return
	}
	first, last := blockRange(addr, n)
	for b := first; b <= last; b++ {
		// The backing array is MemBytes, a multiple of IntegrityBlock.
		_ = c.tree.Update(b, c.mem[b*IntegrityBlock:(b+1)*IntegrityBlock])
	}
}

// checkBlocks verifies tree leaves before a read; callers hold c.mu.
func (c *Core) checkBlocks(addr uint64, n int) error {
	if c.tree == nil {
		return nil
	}
	first, last := blockRange(addr, n)
	for b := first; b <= last; b++ {
		if err := c.tree.Verify(b, c.mem[b*IntegrityBlock:(b+1)*IntegrityBlock]); err != nil {
			return err
		}
	}
	return nil
}

// CorruptMem models a physical attack on the device DRAM (DMA from a
// hostile peripheral, disturbance errors): it flips a byte *without*
// updating the integrity tree. On an unprotected core the corruption is
// silent; on a protected core the next access detects it.
func (c *Core) CorruptMem(addr uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if addr >= MemBytes {
		return fmt.Errorf("%w: corrupt at %d", ErrMemRange, addr)
	}
	c.mem[addr] ^= 0xFF
	return nil
}

// Name implements Device.
func (c *Core) Name() string { return c.kernel.Name() }

// Runs returns how many kernel executions completed (successfully or not).
func (c *Core) Runs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs
}

// WriteReg implements Device. Writing CtrlStart to RegCtrl runs the kernel
// synchronously (the simulation has no concurrency between host polls and
// the kernel; timing is modelled separately in perfmodel).
func (c *Core) WriteReg(addr uint32, v uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch addr {
	case RegCtrl:
		if v == CtrlStart {
			c.run()
		}
		return nil
	case RegKey0, RegKey1, RegIV0, RegIV1:
		c.keySet = true
		c.regs[addr] = v
		if addr == RegIV0 || addr == RegIV1 {
			// Installing an IV starts a fresh session epoch: the per-job
			// counter of the IV schedule rewinds to zero.
			c.jobCtr = 0
		}
		return nil
	case RegInAddr, RegInLen, RegOutAddr, RegParam0, RegParam1, RegParam2, RegParam3:
		c.regs[addr] = v
		return nil
	case RegStatus, RegOutLen:
		return fmt.Errorf("%w: register %#x is read-only", ErrBadReg, addr)
	default:
		return fmt.Errorf("%w: %#x", ErrBadReg, addr)
	}
}

// ReadReg implements Device. Key and IV registers are write-only: hardware
// never exposes loaded keys back to the bus.
func (c *Core) ReadReg(addr uint32) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch addr {
	case RegStatus:
		return c.status, nil
	case RegOutLen:
		return c.outLen, nil
	case RegKey0, RegKey1, RegIV0, RegIV1:
		return 0, fmt.Errorf("%w: register %#x is write-only", ErrBadReg, addr)
	case RegCtrl, RegInAddr, RegInLen, RegOutAddr, RegParam0, RegParam1, RegParam2, RegParam3:
		return c.regs[addr], nil
	default:
		return 0, fmt.Errorf("%w: %#x", ErrBadReg, addr)
	}
}

// WriteMem implements Device (the host-initiated DMA write path).
func (c *Core) WriteMem(addr uint64, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if addr > MemBytes || uint64(len(data)) > MemBytes-addr {
		return fmt.Errorf("%w: write [%d,%d)", ErrMemRange, addr, addr+uint64(len(data)))
	}
	copy(c.mem[addr:], data)
	c.syncBlocks(addr, len(data))
	return nil
}

// ReadMem implements Device (the host-initiated DMA read path).
func (c *Core) ReadMem(addr uint64, dst []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(dst)
	if addr > MemBytes || uint64(n) > MemBytes-addr {
		return fmt.Errorf("%w: read [%d,%d)", ErrMemRange, addr, addr+uint64(n))
	}
	if err := c.checkBlocks(addr, n); err != nil {
		return err
	}
	copy(dst, c.mem[addr:])
	return nil
}

// keyBlock returns the AES schedule of the key the key registers hold,
// expanding it only when they changed since it was last expanded; the key
// bytes are assembled on the stack. Callers hold c.mu.
func (c *Core) keyBlock() (cipher.Block, error) {
	k := [2]uint64{c.regs[RegKey1], c.regs[RegKey0]}
	if c.block == nil || k != c.blockKey {
		var key [16]byte
		binary.BigEndian.PutUint64(key[0:], k[0])
		binary.BigEndian.PutUint64(key[8:], k[1])
		block, err := aes.NewCipher(key[:])
		if err != nil {
			return nil, err
		}
		c.block, c.blockKey = block, k
	}
	return c.block, nil
}

// JobIV derives the CTR IV for the n-th run under an installed base IV: the
// job index is XOR-folded into bytes [8:12], leaving bytes [12:16] as the
// block counter. The crypto engine and the host driver share this schedule,
// so a session needs only one secure IV exchange — subsequent jobs advance
// the counter on both sides without touching the protected registers. Run 0
// uses the base IV verbatim. Hosts that reuse a session must install a base
// IV whose block-counter field is zero, so per-job keystreams (at most 2^32
// blocks apart) can never collide.
func JobIV(base []byte, n uint32) []byte {
	iv := append([]byte(nil), base...)
	foldJobIndex(iv, n)
	return iv
}

// foldJobIndex turns a base IV into run n's IV in place (see JobIV).
func foldJobIndex(iv []byte, n uint32) {
	binary.BigEndian.PutUint32(iv[8:12], binary.BigEndian.Uint32(iv[8:12])^n)
}

// run executes one kernel invocation; callers hold c.mu.
func (c *Core) run() {
	c.runs++
	c.status = StatusError
	c.outLen = 0

	// Every triggered keyed run consumes one slot of the IV schedule,
	// success or failure — the host mirrors this count.
	jobIdx := c.jobCtr
	if c.keySet {
		c.jobCtr++
	}

	inAddr, inLen := c.regs[RegInAddr], c.regs[RegInLen]
	outAddr := c.regs[RegOutAddr]
	if inAddr > MemBytes || inLen > MemBytes-inAddr {
		return
	}
	if err := c.checkBlocks(inAddr, int(inLen)); err != nil {
		return
	}
	// The kernel's one input buffer. Inline stream decryption at the memory
	// interface (Table 4: inbound traffic is always encrypted in TEE mode)
	// fills it straight from device memory, which keeps the ciphertext.
	input := make([]byte, inLen)
	var block cipher.Block
	if c.keySet {
		var err error
		if block, err = c.keyBlock(); err != nil {
			return
		}
		binary.BigEndian.PutUint64(c.iv[0:], c.regs[RegIV1])
		binary.BigEndian.PutUint64(c.iv[8:], c.regs[RegIV0])
		foldJobIndex(c.iv[:], jobIdx)
		cipher.NewCTR(block, c.iv[:]).XORKeyStream(input, c.mem[inAddr:inAddr+inLen])
	} else {
		copy(input, c.mem[inAddr:])
	}

	params := [4]uint64{c.regs[RegParam0], c.regs[RegParam1], c.regs[RegParam2], c.regs[RegParam3]}
	out, err := c.kernel.Compute(params, input)
	if err != nil {
		return
	}

	if block != nil && c.kernel.EncryptOutput() {
		// Outbound traffic uses a disjoint counter block: flip the top bit
		// so input and output keystreams never overlap.
		c.iv[0] ^= 0x80
		cipher.NewCTR(block, c.iv[:]).XORKeyStream(out, out)
	}

	if outAddr > MemBytes || uint64(len(out)) > MemBytes-outAddr {
		return
	}
	copy(c.mem[outAddr:], out)
	c.syncBlocks(outAddr, len(out))
	c.outLen = uint64(len(out))
	c.status = StatusDone
}

// DecryptOutput is the host-side helper undoing the accelerator's outbound
// encryption (same key/IV schedule as the memory engine) in place: data
// becomes the plaintext. block is the data key's expanded schedule and iv
// the run's JobIV.
func DecryptOutput(block cipher.Block, iv, data []byte) {
	outIV := append([]byte(nil), iv...)
	outIV[0] ^= 0x80
	cipher.NewCTR(block, outIV).XORKeyStream(data, data)
}
