package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"salus/internal/accel"
	"salus/internal/channel"
	"salus/internal/cryptoutil"
	"salus/internal/metrics"
)

// Device-level job metrics: on-board latency (secure start through result
// readback) for the plaintext and sealed paths, plus how often the 4-write
// secure key/IV exchange actually runs — the counter that proves session
// reuse is amortising it.
var (
	mCoreJob          = metrics.Default().Histogram("salus_core_job_seconds")
	mCoreSealedJob    = metrics.Default().Histogram("salus_core_sealed_job_seconds")
	mSessionExchanges = metrics.Default().Counter("salus_session_exchanges_total")
)

// DefaultSessionRekeyEvery is how many jobs reuse one cached data-key
// session before the host rotates the register-channel key (RekeySession)
// and re-runs the 4-write key/IV exchange. SystemConfig.SessionRekeyEvery
// overrides it per deployment.
const DefaultSessionRekeyEvery = 64

// ErrDeviceFault marks transport- and session-level failures of the job
// path — DMA traffic, direct or secure register transactions, the crypto
// engine's status — as opposed to deliberate rejections of the job itself
// (unknown kernel, workload/CL mismatch, sealed-input authentication). A
// job failing with ErrDeviceFault was never refused: it may well succeed
// on another device, so retry layers (internal/sched) re-dispatch on it
// and on nothing else.
var ErrDeviceFault = errors.New("core: device/session fault")

// deviceFault tags err as a transport/session failure (see ErrDeviceFault)
// while keeping the underlying chain inspectable.
func deviceFault(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrDeviceFault, err)
}

// RunJob executes one workload on the attested FPGA TEE using the §4.5
// interface pattern the paper prescribes: the symmetric data key is
// exchanged over the secure register channel (through the SM enclave and
// SM logic), while the bulk ciphertext flows over the direct, unprotected
// memory channel — the accelerator's inline AES-CTR engine decrypts at the
// memory interface. The returned bytes are the plaintext result.
//
// The key exchange is amortised across jobs: the first job of a session
// epoch performs the 4 secure key/IV writes, and every subsequent job
// derives a fresh per-job IV from the session counter (accel.JobIV) that
// the crypto engine advances in lockstep. Each job still crosses the
// protected path once — the start command is issued over the secure
// register channel — so a runtime CL substitution or a desynced session
// is caught on the very next job, exactly as with per-job key exchange.
func (s *System) RunJob(w accel.Workload) ([]byte, error) {
	// One job at a time: the accelerator's register file and DMA windows
	// are a single shared resource, exactly as on the physical board.
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	start := time.Now()
	defer mCoreJob.Since(start)
	return s.runJobLocked(w, nil)
}

// runJobLocked is the hot path; callers hold jobMu. With a nil sealKey it
// returns the plaintext result; otherwise the result sealed under sealKey
// (see readOutput).
func (s *System) runJobLocked(w accel.Workload, sealKey []byte) (out []byte, err error) {
	if !s.booted {
		return nil, fmt.Errorf("core: system not booted; run SecureBoot first")
	}
	if w.Kernel.Name() != s.Package.KernelName {
		return nil, fmt.Errorf("core: workload targets %s, deployed CL is %s", w.Kernel.Name(), s.Package.KernelName)
	}
	// Any failure leaves host and engine potentially disagreeing about the
	// IV schedule position — drop the cached session so the next job
	// re-exchanges and resynchronises.
	defer func() {
		if err != nil {
			s.invalidateSession()
		}
	}()

	dataKey, jobIV, err := s.ensureSession()
	if err != nil {
		return nil, err
	}

	if err := s.writeInput(0, dataKey, jobIV, w.Input); err != nil {
		return nil, deviceFault(err)
	}

	outAddr := uint64(len(w.Input) + 4096)
	directRegs := []struct {
		addr uint32
		val  uint64
	}{
		{accel.RegInAddr, 0},
		{accel.RegInLen, uint64(len(w.Input))},
		{accel.RegOutAddr, outAddr},
		{accel.RegParam0, w.Params[0]},
		{accel.RegParam1, w.Params[1]},
		{accel.RegParam2, w.Params[2]},
		{accel.RegParam3, w.Params[3]},
	}
	for _, wr := range directRegs {
		res, err := s.directReg(channel.RegTxn{Write: true, Addr: wr.addr, Data: wr.val})
		if err != nil {
			return nil, deviceFault(err)
		}
		if !res.OK {
			return nil, deviceFault(fmt.Errorf("core: direct write to %#x rejected", wr.addr))
		}
	}

	// The start command rides the protected path: one secure transaction
	// per job keeps the session-counter liveness check of §4.5 on the hot
	// path even when the key exchange is amortised away.
	res, err := s.User.SecureReg(channel.RegTxn{Write: true, Addr: accel.RegCtrl, Data: accel.CtrlStart})
	if err != nil {
		return nil, deviceFault(fmt.Errorf("core: secure job start: %w", err))
	}
	if !res.OK {
		return nil, deviceFault(fmt.Errorf("core: secure job start rejected"))
	}

	// On a physical board the host now blocks until the fabric raises
	// done; model that idle wait for real so multi-board overlap is
	// measurable (see Timing.RealJobLatency).
	if s.Timing.RealJobLatency > 0 {
		time.Sleep(s.Timing.RealJobLatency)
	}

	status, err := s.directReg(channel.RegTxn{Addr: accel.RegStatus})
	if err != nil {
		return nil, deviceFault(err)
	}
	if status.Data != accel.StatusDone {
		return nil, deviceFault(fmt.Errorf("core: accelerator finished with status %d", status.Data))
	}
	outLen, err := s.directReg(channel.RegTxn{Addr: accel.RegOutLen})
	if err != nil {
		return nil, deviceFault(err)
	}
	// RegOutLen is 64-bit; a buggy or hostile CL could report a length
	// whose low 32 bits look plausible. Validate against the device memory
	// window instead of silently truncating.
	if outLen.Data > accel.MemBytes || outLen.Data > accel.MemBytes-outAddr {
		return nil, deviceFault(fmt.Errorf("core: CL reports implausible output length %d at %#x (device memory is %d bytes)",
			outLen.Data, outAddr, accel.MemBytes))
	}

	return s.readOutput(outAddr, int(outLen.Data), w.Kernel.EncryptOutput(), dataKey, jobIV, sealKey)
}

// ensureSession returns the data key and this job's IV, performing the
// 4-write secure key/IV exchange only when no session is cached or the
// epoch is exhausted. Epoch rotation also rotates the register-channel
// session key, so a long-lived deployment never accumulates unbounded
// traffic under one Key_session.
func (s *System) ensureSession() (dataKey, jobIV []byte, err error) {
	if s.sessKey == nil || int(s.sessJobs) >= s.rekeyEvery {
		if s.sessKey != nil {
			if err := s.SM.RekeySession(); err != nil {
				return nil, nil, deviceFault(fmt.Errorf("core: session rotation: %w", err))
			}
		}
		key, baseIV, err := s.newEpochSecrets()
		if err != nil {
			return nil, nil, err
		}
		secureWrites := []struct {
			addr uint32
			val  uint64
		}{
			{accel.RegKey1, binary.BigEndian.Uint64(key[0:8])},
			{accel.RegKey0, binary.BigEndian.Uint64(key[8:16])},
			{accel.RegIV1, binary.BigEndian.Uint64(baseIV[0:8])},
			{accel.RegIV0, binary.BigEndian.Uint64(baseIV[8:16])},
		}
		for _, wr := range secureWrites {
			res, err := s.User.SecureReg(channel.RegTxn{Write: true, Addr: wr.addr, Data: wr.val})
			if err != nil {
				s.invalidateSession()
				return nil, nil, deviceFault(fmt.Errorf("core: secure key exchange: %w", err))
			}
			if !res.OK {
				s.invalidateSession()
				return nil, nil, deviceFault(fmt.Errorf("core: secure write to %#x rejected", wr.addr))
			}
		}
		s.sessKey, s.sessIV, s.sessJobs = key, baseIV, 0
		mSessionExchanges.Inc()
	}
	jobIV = accel.JobIV(s.sessIV, s.sessJobs)
	s.sessJobs++
	return s.sessKey, jobIV, nil
}

// newEpochSecrets draws the secrets of a fresh session epoch: the enclave's
// data key and a random base IV. It is the one place that zeroes the IV's
// block-counter field, the invariant that keeps per-job keystreams, 2^32
// CTR blocks apart under accel.JobIV, from ever colliding.
func (s *System) newEpochSecrets() (key, baseIV []byte, err error) {
	key, err = s.User.DataKey()
	if err != nil {
		return nil, nil, err
	}
	baseIV = cryptoutil.RandomKey(16)
	for i := 12; i < 16; i++ {
		baseIV[i] = 0
	}
	return key, baseIV, nil
}

// invalidateSession drops the cached data-key session; the next job
// re-exchanges. Callers hold jobMu.
func (s *System) invalidateSession() {
	s.sessKey, s.sessIV, s.sessJobs = nil, nil, 0
}

// RunJobSealed is the remote-data-owner job path: the input arrives sealed
// under the provisioned data key (AES-GCM, "job" domain), is opened inside
// the user enclave, offloaded, and the result returns sealed the same way.
// The plaintext never exists outside enclave or CL. The unseal/reseal runs
// under the same serialisation as the job itself, so it can never race
// SecureBoot or RekeySession.
func (s *System) RunJobSealed(kernelName string, params [4]uint64, sealedInput []byte) ([]byte, error) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	start := time.Now()
	defer mCoreSealedJob.Since(start)
	if !s.booted {
		return nil, fmt.Errorf("core: system not booted")
	}
	k, ok := accel.KernelByName(kernelName)
	if !ok {
		return nil, fmt.Errorf("core: unknown kernel %q", kernelName)
	}
	dataKey, err := s.User.DataKey()
	if err != nil {
		return nil, err
	}
	input, err := cryptoutil.Open(dataKey, sealedInput, jobInputAD)
	if err != nil {
		return nil, fmt.Errorf("core: sealed job input rejected: %w", err)
	}
	return s.runJobLocked(accel.Workload{Kernel: k, Params: params, Input: input}, dataKey)
}

// Additional data binding sealed job payloads to their direction.
var (
	jobInputAD  = []byte("job-input")
	jobOutputAD = []byte("job-output")
)

// dmaBurst is the DMA chunk size: large transfers are split into bursts,
// as a real PCIe DMA engine does.
const dmaBurst = 1 << 20

// memWriteHdr is the header of a channel.MsgMemWrite frame: the tag, the
// u64 device address and the u32 payload length (channel.EncodeMemWrite).
const memWriteHdr = 1 + 8 + 4

// writeInput is the enclave's half of the inbound data path: it
// CTR-encrypts a job's plaintext under (key, iv) straight into DMA burst
// frames and streams them to device memory at addr over the direct
// channel. The plaintext never leaves enclave memory and no whole-payload
// ciphertext exists on the host: each burst frame is built in s.burst, the
// one scratch buffer a System owns, grown on first use and reused by every
// later burst. The shell borrows a frame only for its transaction (see
// shell.Interceptor); under -race the scratch is poisoned once each
// transaction returns, so anything that kept it reads garbage. Callers
// hold jobMu, and at most one writeInput runs at a time.
func (s *System) writeInput(addr uint64, key, iv, plaintext []byte) error {
	ctr, err := cryptoutil.CTRStream(key, iv)
	if err != nil {
		return err
	}
	for off := 0; off < len(plaintext); off += dmaBurst {
		chunk := plaintext[off:min(off+dmaBurst, len(plaintext))]
		if cap(s.burst) < memWriteHdr+len(chunk) {
			s.burst = make([]byte, memWriteHdr+len(chunk))
		}
		frame := s.burst[:memWriteHdr+len(chunk)]
		frame[0] = channel.MsgMemWrite
		binary.BigEndian.PutUint64(frame[1:], addr+uint64(off))
		binary.BigEndian.PutUint32(frame[9:], uint32(len(chunk)))
		ctr.XORKeyStream(frame[memWriteHdr:], chunk)
		//lint:allow sealed-boundary direct channel is plaintext-by-design (§4.5): the payload was CTR-encrypted into the frame above, and the frame header is public
		resp, err := s.User.Direct(frame)
		if raceEnabled {
			for i := range frame {
				frame[i] = 0xA5
			}
		}
		if err != nil {
			return err
		}
		if msg, isErr := channel.DecodeError(resp); isErr {
			return fmt.Errorf("core: DMA write: %s", msg)
		}
	}
	return nil
}

// readOutput is the enclave's half of the outbound data path: it reads a
// job's n-byte result from device memory at addr into the one buffer the
// job returns. For a plaintext job (nil sealKey) that buffer is exactly n
// bytes. For a sealed job it is n+SealOverhead bytes, the result is read
// into its middle, and the kernel's output CTR (when it encrypts output)
// and the GCM seal under sealKey both run in place, so the buffer ends up
// holding exactly cryptoutil.Seal's output.
func (s *System) readOutput(addr uint64, n int, encrypted bool, key, iv, sealKey []byte) ([]byte, error) {
	size, lo := n, 0
	if sealKey != nil {
		size, lo = n+cryptoutil.SealOverhead, cryptoutil.NonceSize
	}
	buf := make([]byte, size)
	out := buf[lo : lo+n]
	if err := s.dmaRead(addr, out); err != nil {
		return nil, deviceFault(err)
	}
	if encrypted {
		if err := accel.DecryptOutput(key, iv, out); err != nil {
			return nil, deviceFault(err)
		}
	}
	if sealKey == nil {
		return out, nil
	}
	if err := cryptoutil.SealInPlace(sealKey, buf, jobOutputAD); err != nil {
		return nil, err
	}
	return buf, nil
}

// dmaRead fills dst from device memory at addr in bursts, symmetric with
// writeInput — an unbounded single MemRead would let one response frame
// pin the whole result in flight.
func (s *System) dmaRead(addr uint64, dst []byte) error {
	for off := 0; off < len(dst); off += dmaBurst {
		want := min(len(dst)-off, dmaBurst)
		//lint:allow sealed-boundary MemRead frames carry only a public (address, length) header; returned data is ciphertext on the sealed path
		resp, err := s.User.Direct(channel.EncodeMemRead(channel.MemRead{
			Addr: addr + uint64(off), N: uint32(want),
		}))
		if err != nil {
			return err
		}
		if msg, isErr := channel.DecodeError(resp); isErr {
			return fmt.Errorf("core: DMA read: %s", msg)
		}
		chunk, err := channel.DecodeMemData(resp)
		if err != nil {
			return err
		}
		if len(chunk) != want {
			return fmt.Errorf("core: DMA read returned %d bytes, want %d", len(chunk), want)
		}
		copy(dst[off:], chunk)
	}
	return nil
}

func (s *System) directReg(txn channel.RegTxn) (channel.RegResult, error) {
	//lint:allow sealed-boundary direct register path is the paper's unprotected channel; secure register writes go through smapp's sealed path instead
	resp, err := s.User.Direct(channel.EncodeDirectReg(txn))
	if err != nil {
		return channel.RegResult{}, err
	}
	if msg, isErr := channel.DecodeError(resp); isErr {
		return channel.RegResult{}, fmt.Errorf("core: direct register: %s", msg)
	}
	return channel.DecodeDirectResp(resp)
}

// RekeySession rotates the register channel's session secrets (see
// smapp.RekeySession), serialised against in-flight jobs.
func (s *System) RekeySession() error {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	return s.SM.RekeySession()
}
