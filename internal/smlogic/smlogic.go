// Package smlogic models the Secure Manager (SM) logic of Figure 5: the
// hardware module the developer integrates into every CL next to the
// accelerator. It holds the injected secrets (Key_attest, Key_session,
// Ctr_session) in an isolated on-chip BRAM whose interface is never exposed
// outside the module, answers the CL attestation challenge with its SipHash
// engine, and transparently protects the accelerator's sensitive register
// interface with the AES engine and session counter (§5.1.1, §4.5).
//
// The module is released as part of the HDK: it contains no hardcoded
// secrets — everything secret arrives via bitstream manipulation at
// deployment time — so the codebase stays compact and inspectable.
package smlogic

import (
	"encoding/binary"
	"fmt"
	"sync"

	"salus/internal/accel"
	"salus/internal/bitstream"
	"salus/internal/channel"
	"salus/internal/fpga"
	"salus/internal/netlist"
)

// ModuleName is the SM logic's instance name inside every CL design.
const ModuleName = "salus_sm"

// SecretsCellName is the reserved BRAM cell holding the injected secrets.
const SecretsCellName = "secrets"

// SecretsCellPath is the hierarchical path recorded as Loc_Keyattest.
const SecretsCellPath = ModuleName + "/" + SecretsCellName

// Byte layout of the secrets BRAM.
const (
	OffKeyAttest  = 0  // 16 bytes
	OffKeySession = 16 // 16 bytes
	OffCtrSession = 32 // 8 bytes, big-endian
	SecretsSize   = 40
)

// Module returns the SM logic's synthesised footprint — the Table 5 row
// (27667 LUTs, 29631 registers, 88 BRAMs), identical across all benchmarks
// because the logic is general.
func Module() netlist.ModuleSpec {
	return netlist.ModuleSpec{
		Name: ModuleName,
		Res:  netlist.Resources{LUT: 27667, Register: 29631, BRAM: 88},
		Cells: []netlist.BRAMCell{
			{Name: SecretsCellName},
			{Name: "txn_fifo"},
		},
	}
}

// LogicID returns the fabric identity of a CL that bundles the SM logic
// with the given kernel.
func LogicID(k accel.Kernel) string { return "salus-cl/" + k.Name() }

// ProtectedLogicID identifies the CL variant whose accelerator additionally
// integrates a memory integrity tree (the §3.1 attack-2 defence; see
// internal/merkle). The developer picks it by building the design with this
// identity instead of LogicID.
func ProtectedLogicID(k accel.Kernel) string { return "salus-cl-bmt/" + k.Name() }

// Integrate combines the developer's accelerator module with the SM logic
// into one CL design, as the development flow of §4.2 prescribes.
func Integrate(designName string, accelMod netlist.ModuleSpec) (*netlist.Design, error) {
	d := &netlist.Design{Name: designName, Modules: []netlist.ModuleSpec{accelMod, Module()}}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("smlogic: integrate: %w", err)
	}
	return d, nil
}

func init() {
	// The HDK ships one SM-logic wrapper per benchmark kernel — plus the
	// memory-integrity-protected variant; loading a bitstream with the
	// matching identity instantiates it.
	for _, k := range accel.Kernels() {
		k := k
		fpga.RegisterLogic(LogicID(k), newFactory(k, false))
		fpga.RegisterLogic(ProtectedLogicID(k), newFactory(k, true))
	}
}

// newFactory returns the fpga.CLFactory instantiating the SM logic wrapped
// around the given kernel. The secrets are read from the freshly programmed
// configuration memory — i.e. from whatever the loaded bitstream carried.
func newFactory(k accel.Kernel, protected bool) fpga.CLFactory {
	return func(cfg fpga.CLConfig) (fpga.CL, error) {
		loc, ok := cfg.Image.Cell(SecretsCellPath)
		if !ok {
			return nil, fmt.Errorf("smlogic: bitstream has no %s cell", SecretsCellPath)
		}
		sec, err := cfg.Image.CellBytes(loc, 0, SecretsSize)
		if err != nil {
			return nil, fmt.Errorf("smlogic: reading secrets: %w", err)
		}
		id := LogicID(k)
		var core accel.Device
		if protected {
			id = ProtectedLogicID(k)
			pc, err := accel.NewProtectedCore(k)
			if err != nil {
				return nil, fmt.Errorf("smlogic: %w", err)
			}
			core = pc
		} else {
			core = accel.NewCore(k)
		}
		return &Logic{
			logicID:    id,
			dna:        cfg.DNA,
			keyAttest:  append([]byte(nil), sec[OffKeyAttest:OffKeyAttest+16]...),
			keySession: append([]byte(nil), sec[OffKeySession:OffKeySession+16]...),
			nextCtr:    binary.BigEndian.Uint64(sec[OffCtrSession:]),
			accel:      core,
		}, nil
	}
}

// Logic is the instantiated SM logic plus its attached accelerator: one
// loaded CL. It implements fpga.CL.
type Logic struct {
	logicID    string
	dna        fpga.DNA
	keyAttest  []byte
	keySession []byte

	mu      sync.Mutex
	nextCtr uint64
	accel   accel.Device

	// Secure channel state (guarded by mu): the sealer frames every secure
	// message of the current Key_session epoch from one key schedule, and
	// the slices are reused across batches, so the steady-state secure
	// paths allocate nothing.
	sealer    *channel.Sealer
	batchTxns []channel.RegTxn
	batchRes  []channel.RegResult

	// directResp is where every direct register response (10 bytes) and
	// rekey acknowledgement (18 bytes) is built (guarded by mu), lent to the
	// shell until the next transaction. It is part of the Logic, so neither
	// ever allocates, a boot's one rekey included.
	directResp [32]byte
	// readFrame is the buffer every DMA read response of at most
	// channel.DMABurst bytes is built in (guarded by mu), lent until the
	// next DMA read; a larger read, which only a hostile shell asks for,
	// gets a frame of its own. The host poisons it under -race once it has
	// copied the data out (see core's dmaRead). writeAck is where every DMA
	// write is acknowledged, lent until the next DMA write.
	readFrame []byte
	writeAck  []byte
}

// LogicID implements fpga.CL.
func (l *Logic) LogicID() string { return l.logicID }

// HandleTransaction implements fpga.CL: it dispatches one PCIe transaction.
// Protocol failures (bad MAC, replay, bad register) come back as MsgError
// frames — the bus delivered the message; the *content* was rejected.
func (l *Logic) HandleTransaction(req []byte) ([]byte, error) {
	switch channel.MsgType(req) {
	case channel.MsgAttestReq:
		return l.handleAttest(req), nil
	case channel.MsgSecureReg:
		return l.handleSecureReg(req), nil
	case channel.MsgSecureRegBatch:
		return l.handleSecureRegBatch(req), nil
	case channel.MsgRekey:
		return l.handleRekey(req), nil
	case channel.MsgDirectReg:
		return l.handleDirectReg(req), nil
	case channel.MsgMemWrite:
		return l.handleMemWrite(req), nil
	case channel.MsgMemRead:
		return l.handleMemRead(req), nil
	default:
		return channel.EncodeError(fmt.Sprintf("smlogic: unknown message type %#x", channel.MsgType(req))), nil
	}
}

// handleAttest is the prover side of Figure 4a: verify MAC_req with the
// local Key'_attest and DNA', then answer with MAC_rsp over (N+1, DNA').
func (l *Logic) handleAttest(req []byte) []byte {
	r, err := channel.DecodeAttestRequest(req)
	if err != nil {
		return channel.EncodeError("smlogic: malformed attestation request")
	}
	// Verifying against the *local* DNA both authenticates the request and
	// confirms the CSP pointed the host at the right physical device.
	//lint:allow ct-compare SipHash tags are single uint64 words; a word-sized compare executes in constant time
	if channel.AttestMACReq(l.keyAttest, r.Nonce, string(l.dna)) != r.MAC {
		return channel.EncodeError("smlogic: attestation request MAC mismatch")
	}
	resp := channel.AttestResponse{Value: r.Nonce + 1, DNA: string(l.dna)}
	resp.MAC = channel.AttestMACResp(l.keyAttest, resp.Value, resp.DNA)
	out, err := resp.Encode()
	if err != nil {
		return channel.EncodeError("smlogic: encoding attestation response: " + err.Error())
	}
	return out
}

// handleSecureReg is the transparent register protection path: decrypt,
// verify, forward to the accelerator, and encrypt the response under the
// same session counter. The response is built in the epoch Sealer's
// scratch and is borrowed until the next transaction (see
// shell.Interceptor).
func (l *Logic) handleSecureReg(req []byte) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	sealer, err := l.sessionSealer()
	if err != nil {
		return channel.EncodeError("smlogic: sealer: " + err.Error())
	}
	txn, err := sealer.OpenRegRequest(l.nextCtr, req)
	if err != nil {
		return channel.EncodeError("smlogic: secure register frame rejected: " + err.Error())
	}
	frame, err := sealer.SealRegResponse(l.nextCtr, l.execReg(txn))
	if err != nil {
		return channel.EncodeError("smlogic: sealing response failed")
	}
	l.nextCtr++
	return frame
}

// handleSecureRegBatch executes a whole sealed register program — open the
// transaction vector under the session key, run every transaction in the
// authenticated order, and seal the result vector at the same counter. The
// batch consumes exactly one counter tick: the single MAC already covers
// the ordering and count of every transaction inside, so per-transaction
// ticks would add replay surface, not remove it. Protected registers
// (key/IV) are reachable here just as on the single-frame secure path —
// that is what lets a fresh session epoch's key exchange ride the same
// frame as the jobs it serves.
func (l *Logic) handleSecureRegBatch(req []byte) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	sealer, err := l.sessionSealer()
	if err != nil {
		return channel.EncodeError("smlogic: batch sealer: " + err.Error())
	}
	l.batchTxns, err = sealer.OpenRegBatchRequest(l.nextCtr, req, l.batchTxns)
	if err != nil {
		return channel.EncodeError("smlogic: secure batch frame rejected: " + err.Error())
	}
	l.batchRes = l.batchRes[:0]
	for _, txn := range l.batchTxns {
		l.batchRes = append(l.batchRes, l.execReg(txn))
	}
	frame, err := sealer.SealRegBatchResponse(l.nextCtr, l.batchRes)
	if err != nil {
		return channel.EncodeError("smlogic: sealing batch response failed")
	}
	l.nextCtr++
	return frame
}

// sessionSealer returns the Sealer of the current Key_session epoch,
// expanding the key on the epoch's first frame; callers hold l.mu.
func (l *Logic) sessionSealer() (*channel.Sealer, error) {
	if l.sealer == nil {
		s, err := channel.NewSealer(l.keySession)
		if err != nil {
			return nil, err
		}
		l.sealer = s
	}
	return l.sealer, nil
}

// handleRekey rotates Key_session and Ctr_session on the SM enclave's
// authenticated request: verify under the current key, acknowledge under
// the current key, then switch — a fresh session epoch that also invalidates
// every previously recorded frame. The new key is copied over the old one
// and the epoch's Sealer is rekeyed in place, which zeroes its buffers, so
// the acknowledgement is lent from directResp instead.
func (l *Logic) handleRekey(req []byte) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	sealer, err := l.sessionSealer()
	if err != nil {
		return channel.EncodeError("smlogic: sealer: " + err.Error())
	}
	newKey, newCtr, err := sealer.OpenRekeyRequest(l.nextCtr, req)
	if err != nil {
		return channel.EncodeError("smlogic: rekey rejected: " + err.Error())
	}
	resp, err := sealer.SealRekeyResponse(l.nextCtr)
	if err != nil {
		return channel.EncodeError("smlogic: rekey ack failed")
	}
	ack := append(l.directResp[:0], resp...)
	// newKey borrows the sealer's open buffer, which Rekey zeroes.
	l.keySession = append(l.keySession[:0], newKey...)
	if err := sealer.Rekey(l.keySession); err != nil {
		return channel.EncodeError("smlogic: rekey: " + err.Error())
	}
	l.nextCtr = newCtr
	return ack
}

// handleDirectReg is the direct, unprotected register path. The key and IV
// registers are only wired through the secure port: hardware physically
// refuses them here, so a malicious shell can neither overwrite nor probe
// the data key. The response is built in the Logic's one direct-response
// buffer and is borrowed until the next transaction (see
// shell.Interceptor).
func (l *Logic) handleDirectReg(req []byte) []byte {
	txn, err := channel.DecodeDirectReg(req)
	if err != nil {
		return channel.EncodeError("smlogic: malformed direct register frame")
	}
	if isProtectedReg(txn.Addr) {
		return channel.EncodeError("smlogic: register reachable only via secure channel")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return channel.AppendDirectResp(l.directResp[:0], l.execReg(txn))
}

func isProtectedReg(addr uint32) bool {
	switch addr {
	case accel.RegKey0, accel.RegKey1, accel.RegIV0, accel.RegIV1:
		return true
	}
	return false
}

// execReg forwards a register transaction to the accelerator; callers hold
// l.mu.
func (l *Logic) execReg(txn channel.RegTxn) channel.RegResult {
	if txn.Write {
		if err := l.accel.WriteReg(txn.Addr, txn.Data); err != nil {
			return channel.RegResult{}
		}
		return channel.RegResult{Data: txn.Data, OK: true}
	}
	v, err := l.accel.ReadReg(txn.Addr)
	if err != nil {
		return channel.RegResult{}
	}
	return channel.RegResult{Data: v, OK: true}
}

// handleMemWrite lands a DMA burst in device memory. The request frame is
// the shell's, borrowed for this call: the bytes are copied into DRAM and
// nothing keeps the frame.
func (l *Logic) handleMemWrite(req []byte) []byte {
	m, err := channel.DecodeMemWrite(req)
	if err != nil {
		return channel.EncodeError("smlogic: malformed DMA write")
	}
	if err := l.accel.WriteMem(m.Addr, m.Data); err != nil {
		return channel.EncodeError("smlogic: " + err.Error())
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.writeAck, _ = channel.AppendMemData(l.writeAck[:0], 0)
	return l.writeAck
}

// handleMemRead answers a DMA read with one response frame that device
// memory is read straight into: the Logic's read frame for a burst-sized
// read, borrowed until the next DMA read (see shell.Interceptor).
func (l *Logic) handleMemRead(req []byte) []byte {
	m, err := channel.DecodeMemRead(req)
	if err != nil {
		return channel.EncodeError("smlogic: malformed DMA read")
	}
	if m.N > accel.MemBytes {
		return channel.EncodeError(fmt.Sprintf("smlogic: DMA read of %d bytes exceeds device memory", m.N))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var frame, data []byte
	if m.N <= channel.DMABurst {
		l.readFrame, data = channel.AppendMemData(l.readFrame[:0], m.N)
		frame = l.readFrame
	} else {
		frame, data = channel.AppendMemData(nil, m.N)
	}
	if err := l.accel.ReadMem(m.Addr, data); err != nil {
		return channel.EncodeError("smlogic: " + err.Error())
	}
	return frame
}

// InjectSecrets writes the three secrets into an image's reserved cell in
// the canonical layout — the byte-level contract between the SM enclave's
// bitstream manipulation and this module. It lives here so both sides share
// one definition.
func InjectSecrets(im *bitstream.Image, keyAttest, keySession []byte, ctrSession uint64) error {
	if len(keyAttest) != 16 || len(keySession) != 16 {
		return fmt.Errorf("smlogic: keys must be 16 bytes")
	}
	loc, ok := im.Cell(SecretsCellPath)
	if !ok {
		return fmt.Errorf("smlogic: bitstream has no %s cell", SecretsCellPath)
	}
	buf := make([]byte, SecretsSize)
	copy(buf[OffKeyAttest:], keyAttest)
	copy(buf[OffKeySession:], keySession)
	binary.BigEndian.PutUint64(buf[OffCtrSession:], ctrSession)
	return im.SetCellBytes(loc, 0, buf)
}
