// Package accel implements the five benchmark accelerators of the paper
// (Table 4) as functional models: each kernel really computes its result in
// Go, and the surrounding Core models the accelerator's hardware shell —
// an AXI4-Lite register file, CL-attached device memory reached by DMA, and
// the streaming crypto engine the paper adds at the memory interface for
// TEE operation (§6.4), here AES-GCM rather than the paper's AES-CTR so the
// job data is authenticated as well as encrypted (see dataplane.go).
//
// Following Table 4, every kernel decrypts its inbound traffic when a data
// key has been provisioned; only Affine and Rendering also encrypt their
// outbound traffic (for the ML-style kernels the paper leaves weights and
// outputs in plaintext), and every output carries a tag.
package accel

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"salus/internal/channel"
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
	RegIV0     uint32 = 0x20 // base IV bits [63:0]
	RegIV1     uint32 = 0x28 // base IV bits [127:64]
	RegInAddr  uint32 = 0x30
	RegInLen   uint32 = 0x38
	RegOutAddr uint32 = 0x40
	RegOutLen  uint32 = 0x48 // read-only: bytes produced by the last run
	RegParam0  uint32 = 0x50
	RegParam1  uint32 = 0x58
	RegParam2  uint32 = 0x60
	RegParam3  uint32 = 0x68
)

// Status register values. StatusIntegrity is a keyed run whose input
// failed the data plane's authentication: the kernel did not run.
const (
	StatusIdle      uint64 = 0
	StatusDone      uint64 = 1
	StatusError     uint64 = 2
	StatusIntegrity uint64 = 3
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
	// AppendCompute runs the kernel on plaintext input with the four
	// parameter registers and appends the plaintext output to dst, in dst's
	// spare capacity when it has enough. It writes every byte it appends, so
	// stale bytes in that capacity never reach the output, and it retains
	// neither dst nor the returned slice.
	AppendCompute(dst []byte, params [4]uint64, input []byte) ([]byte, error)
	// Compute is AppendCompute into a fresh buffer.
	Compute(params [4]uint64, input []byte) ([]byte, error)
	// OutputCap bounds the output Compute returns for these parameters and
	// an input of inLen bytes: the size of the device-memory slot a job's
	// result is written to. Parameters arrive from remote clients, so it
	// never overflows and always lies in [0, MemBytes].
	OutputCap(params [4]uint64, inLen int) int
}

// sizeOf multiplies buffer dimensions. ok is false for a negative factor or
// a product beyond MemBytes: no kernel buffer outgrows device memory, and
// a product of client-supplied dimensions must never wrap into a plausible
// length.
func sizeOf(dims ...int) (n int, ok bool) {
	n = 1
	for _, d := range dims {
		if d < 0 || (d > 0 && n > MemBytes/d) {
			return 0, false
		}
		n *= d
	}
	return n, true
}

// capOf is sizeOf for an output bound: a product too large for device
// memory saturates at MemBytes. Callers pass non-negative factors.
func capOf(dims ...int) int {
	if n, ok := sizeOf(dims...); ok {
		return n
	}
	return MemBytes
}

// extend grows dst by n bytes for a kernel to overwrite and returns both
// the grown slice and its last n bytes. Reused capacity holds stale bytes,
// not zeros; a dst without room for them is copied into one of exactly
// len(dst)+n.
func extend(dst []byte, n int) (all, tail []byte) {
	if cap(dst)-len(dst) < n {
		grown := make([]byte, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	all = dst[:len(dst)+n]
	return all, all[len(dst):]
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

	mu   sync.Mutex
	regs map[uint32]uint64
	// mem is device memory up to its high-water mark: it grows on the first
	// write past the mark (see grow), and every byte beyond it reads as
	// zero, so a partition costs the memory its jobs touch, not MemBytes.
	mem  []byte
	tree *merkle.Tree // nil = unprotected memory
	// input and output are the fabric's kernel buffers, reused by every
	// run (kernels never alias their input, nor retain their output).
	input  []byte
	output []byte
	keySet bool
	status uint64
	outLen uint64
	runs   int
	jobCtr uint32 // keyed runs since the last IV install (per-job IV schedule)

	// The memory-interface engine's loaded key: aead is the AES-GCM of the
	// key the key registers held when it was expanded (aeadKey), so it is
	// re-expanded only when they change. job is the current run as the data
	// plane binds it, inTag its last input burst's tag, and plane the
	// engine's nonce and additional-data scratch (see DataPlane).
	aead    cipher.AEAD
	aeadKey [2]uint64
	job     DataJob
	inTag   [TagSize]byte
	plane   DataPlane
}

// IntegrityBlock is the protection granularity of the memory integrity
// tree.
const IntegrityBlock = 64

// NewCore instantiates the accelerator for a kernel. Its device memory is
// allocated on first touch.
func NewCore(k Kernel) *Core {
	return &Core{
		kernel: k,
		regs:   make(map[uint32]uint64),
	}
}

// NewProtectedCore instantiates the accelerator with a Bonsai-Merkle-style
// integrity tree over its device memory: every DMA read and every kernel
// input fetch is verified against the on-chip root, so off-chip tampering
// surfaces as an integrity error instead of silently corrupt results. The
// tree covers the whole window, so its memory is allocated up front.
func NewProtectedCore(k Kernel) (*Core, error) {
	c := NewCore(k)
	c.mem = make([]byte, MemBytes)
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

// grow raises the high-water mark to end <= MemBytes, doubling the backing
// array so a run of growing writes copies it O(log n) times. Bytes past the
// old mark are fresh zeros. Callers hold c.mu.
func (c *Core) grow(end uint64) {
	if end <= uint64(len(c.mem)) {
		return
	}
	if end > uint64(cap(c.mem)) {
		m := make([]byte, end, min(max(end, 2*uint64(cap(c.mem))), MemBytes))
		copy(m, c.mem)
		c.mem = m
	}
	c.mem = c.mem[:end]
}

// store writes data at addr, growing device memory to cover it (an empty
// write touches nothing), and refreshes the integrity tree. Callers hold
// c.mu and have range-checked the span.
func (c *Core) store(addr uint64, data []byte) {
	if len(data) == 0 {
		return
	}
	c.grow(addr + uint64(len(data)))
	copy(c.mem[addr:], data)
	c.syncBlocks(addr, len(data))
}

// backed returns the part of [addr, addr+n) below the high-water mark; the
// rest reads as zero. Callers hold c.mu and have range-checked the span.
func (c *Core) backed(addr, n uint64) []byte {
	lo := min(addr, uint64(len(c.mem)))
	return c.mem[lo:min(addr+n, uint64(len(c.mem)))]
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

// Name implements Device.
func (c *Core) Name() string { return c.kernel.Name() }

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
	c.store(addr, data)
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
	clear(dst[copy(dst, c.backed(addr, uint64(n))):])
	return nil
}

// keyAEAD returns the data plane's AES-GCM under the key the key registers
// hold, expanding it only when they changed since it was last expanded;
// the key bytes are assembled on the stack. Callers hold c.mu.
func (c *Core) keyAEAD() (cipher.AEAD, error) {
	k := [2]uint64{c.regs[RegKey1], c.regs[RegKey0]}
	if c.aead == nil || k != c.aeadKey {
		var key [16]byte
		binary.BigEndian.PutUint64(key[0:], k[0])
		binary.BigEndian.PutUint64(key[8:], k[1])
		block, err := aes.NewCipher(key[:])
		if err != nil {
			return nil, err
		}
		aead, err := cipher.NewGCM(block)
		if err != nil {
			return nil, err
		}
		c.aead, c.aeadKey = aead, k
	}
	return c.aead, nil
}

// JobIV derives the IV of the n-th run under an installed base IV: the job
// index is XOR-folded into bytes [8:12]. The crypto engine and the host
// driver share this schedule, so a session needs only one secure IV
// exchange — subsequent jobs advance the index on both sides without
// touching the protected registers. Run 0 uses the base IV verbatim. The
// data plane's nonces are derived from it (see DataPlane): bytes [0:12],
// with a direction bit and an input burst's index folded into bits the job
// index does not use, so no two nonces of one epoch coincide.
func JobIV(base []byte, n uint32) [16]byte {
	var iv [16]byte
	copy(iv[:], base)
	foldJobIndex(iv[:], n)
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
	span := inLen
	if c.keySet {
		if span = SealedInLen(inLen); span > MemBytes-inAddr {
			return
		}
	}
	if err := c.checkBlocks(inAddr, int(span)); err != nil {
		return
	}
	params := [4]uint64{c.regs[RegParam0], c.regs[RegParam1], c.regs[RegParam2], c.regs[RegParam3]}
	var aead cipher.AEAD
	if c.keySet {
		// Inline decryption at the memory interface (Table 4: inbound
		// traffic is always encrypted in TEE mode) checks every burst's
		// tag before the kernel sees a byte of it.
		var err error
		if aead, err = c.keyAEAD(); err != nil {
			return
		}
		c.job = DataJob{Index: jobIdx, Params: params, InLen: inLen, OutAddr: outAddr,
			OutCap: uint64(c.kernel.OutputCap(params, int(inLen)))}
		binary.BigEndian.PutUint64(c.job.IV[0:], c.regs[RegIV1])
		binary.BigEndian.PutUint64(c.job.IV[8:], c.regs[RegIV0])
		foldJobIndex(c.job.IV[:], jobIdx)
		if !c.openInput(aead, inAddr) {
			c.status = StatusIntegrity
			return
		}
	} else {
		// The kernel's one input buffer, reused across runs, filled
		// straight from device memory; input past the high-water mark is
		// zeros.
		if uint64(cap(c.input)) < inLen {
			c.input = make([]byte, inLen)
		}
		clear(c.input[copy(c.input[:inLen], c.backed(inAddr, inLen)):inLen])
	}

	out, err := c.kernel.AppendCompute(c.output[:0], params, c.input[:inLen])
	if err != nil {
		return
	}
	n := uint64(len(out))
	if aead != nil {
		out = c.plane.SealOutput(aead, &c.job, c.inTag[:], out, c.kernel.EncryptOutput())
	}
	c.output = out

	if outAddr > MemBytes || uint64(len(out)) > MemBytes-outAddr {
		return
	}
	c.store(outAddr, out)
	c.outLen = n
	c.status = StatusDone
}

// openInput checks and decrypts the run's sealed input (c.job) burst by
// burst, straight from device memory into c.input, the kernel's one input
// buffer, reused across runs; a burst partly past the high-water mark is
// first copied into that buffer with zeros past the mark. It keeps the
// last burst's tag in c.inTag and reports false on any tag that does not
// verify. Callers hold c.mu and have range-checked the sealed span.
func (c *Core) openInput(aead cipher.AEAD, inAddr uint64) bool {
	inLen := c.job.InLen
	if uint64(cap(c.input)) < inLen+TagSize {
		c.input = make([]byte, inLen+TagSize)
	}
	off := uint64(0)
	for b := uint64(0); b < InputBursts(inLen); b++ {
		n := min(channel.DMABurst, inLen-off)
		src := c.backed(inAddr+b*SealedBurst, n+TagSize)
		if uint64(len(src)) < n+TagSize {
			buf := c.input[off : off+n+TagSize]
			clear(buf[copy(buf, src):])
			src = buf
		}
		copy(c.inTag[:], src[n:])
		if _, err := c.plane.OpenBurst(c.input[off:off], aead, &c.job, uint32(b), src); err != nil {
			return false
		}
		off += n
	}
	return true
}
