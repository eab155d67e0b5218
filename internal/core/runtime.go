package core

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"salus/internal/accel"
	"salus/internal/bufpool"
	"salus/internal/channel"
	"salus/internal/cryptoutil"
	"salus/internal/metrics"
)

// Device-level job metrics: on-board latency (secure start through result
// readback) of a plaintext RunJob and of a sealed RunSealed call, plus how
// often the 4-write secure key/IV exchange actually runs — the counter that
// proves session reuse is amortising it.
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
// protected path once — its whole register program, start command
// included, rides the secure register channel — so a runtime CL
// substitution or a desynced session is caught on the very next job,
// exactly as with per-job key exchange.
//
// RunJob is the plaintext facade over the one job engine the sealed path
// runs (see RunSealed and runJobBatchLocked): a lone job is a batch of one,
// whose register program rides one sealed MsgSecureRegBatch frame and which
// gets the whole device memory window. The workload passes through the
// System's job scratch, which is cleared before RunJob returns, so the
// System keeps no reference to the job's plaintext or the epoch's key.
func (s *System) RunJob(w accel.Workload) ([]byte, error) {
	// One job at a time: the accelerator's register file and DMA windows
	// are a single shared resource, exactly as on the physical board.
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	start := time.Now()
	defer mCoreJob.Since(start)
	var res [1]BatchResult
	ws := s.workloads(1)
	ws[0] = w
	err := s.runJobBatchLocked(ws, res[:], nil)
	s.clearScratch()
	if err != nil {
		return nil, err
	}
	return res[0].Output, res[0].Err
}

// newEpochSecrets draws the secrets of a fresh session epoch: the enclave's
// data key, expanded once for the epoch's CTR streams, and a random base
// IV. It is the one place that zeroes the IV's block-counter field, the
// invariant that keeps per-job keystreams, 2^32 CTR blocks apart under
// accel.JobIV, from ever colliding.
func (s *System) newEpochSecrets() (key []byte, block cipher.Block, baseIV []byte, err error) {
	key, err = s.User.DataKey()
	if err != nil {
		return nil, nil, nil, err
	}
	if block, err = aes.NewCipher(key); err != nil {
		return nil, nil, nil, err
	}
	baseIV = cryptoutil.RandomKey(16)
	for i := 12; i < 16; i++ {
		baseIV[i] = 0
	}
	return key, block, baseIV, nil
}

// invalidateSession drops the cached data-key session; the next job
// re-exchanges. Callers hold jobMu.
func (s *System) invalidateSession() {
	s.sessKey, s.sessBlock, s.sessIV, s.sessJobs = nil, nil, nil, 0
}

// Additional data binding sealed job payloads to their direction.
var (
	jobInputAD  = []byte("job-input")
	jobOutputAD = []byte("job-output")
)

// memWriteHdr is the header of a channel.MsgMemWrite frame: the tag, the
// u64 device address and the u32 payload length (channel.EncodeMemWrite).
const memWriteHdr = 1 + 8 + 4

// writeInput is the enclave's half of the inbound data path: it
// CTR-encrypts a job's plaintext under (block, iv) straight into DMA burst
// frames and streams them to device memory at addr over the direct
// channel. The plaintext never leaves enclave memory and no whole-payload
// ciphertext exists on the host: each burst frame is built in s.burst, the
// one scratch buffer a System owns, grown on first use and reused by every
// later burst. The shell borrows a frame only for its transaction (see
// shell.Interceptor); under -race the scratch is poisoned once each
// transaction returns, so anything that kept it reads garbage. Callers
// hold jobMu, and at most one writeInput runs at a time.
func (s *System) writeInput(addr uint64, block cipher.Block, iv, plaintext []byte) error {
	ctr := cipher.NewCTR(block, iv)
	for off := 0; off < len(plaintext); off += channel.DMABurst {
		chunk := plaintext[off:min(off+channel.DMABurst, len(plaintext))]
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
		poison(frame)
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
// job returns. For a plaintext job (nil seal) that buffer is exactly n
// bytes, and the caller keeps it. For a sealed job it is n+SealOverhead
// bytes from bufpool, the result is read into its middle, and the kernel's
// output CTR (when it encrypts output, under the epoch's block) and the GCM
// seal under seal both run in place, so the buffer ends up holding exactly
// cryptoutil.Seal's output, which its last holder may hand back to bufpool
// once it is sent. Until the seal it may hold plaintext, so a failure on
// the way drops it through dropOutput.
func (s *System) readOutput(addr uint64, n int, encrypted bool, block cipher.Block, iv [16]byte, seal cipher.AEAD) ([]byte, error) {
	buf, lo := []byte(nil), 0
	if seal == nil {
		buf = make([]byte, n)
	} else {
		buf, lo = bufpool.Get(n+cryptoutil.SealOverhead), cryptoutil.NonceSize
	}
	out := buf[lo : lo+n]
	if err := s.dmaRead(addr, out); err != nil {
		dropOutput(buf)
		return nil, deviceFault(err)
	}
	if encrypted {
		accel.DecryptOutput(block, iv, out)
	}
	if seal == nil {
		return out, nil
	}
	if err := cryptoutil.SealInPlaceWith(seal, buf, jobOutputAD); err != nil {
		dropOutput(buf)
		return nil, err
	}
	return buf, nil
}

// dropOutput zeroes a job output nobody will receive (a failed read-back
// or seal, or a whole-call fault's discarded results) and offers it to
// bufpool, which keeps a sealed one; zeroed and unreferenced, any buffer
// is safe to pool.
func dropOutput(buf []byte) {
	clear(buf)
	bufpool.Put(buf)
}

// dmaRead fills dst from device memory at addr in bursts, symmetric with
// writeInput — an unbounded single MemRead would let one response frame
// pin the whole result in flight. Each read request is built in
// s.regFrame, the System's one request scratch, which the shell borrows
// for the transaction only. Each response is the SM logic's reused read
// frame, lent until its next DMA read; under -race it is poisoned once its
// data is copied out, like the request scratches.
func (s *System) dmaRead(addr uint64, dst []byte) error {
	for off := 0; off < len(dst); off += channel.DMABurst {
		want := min(len(dst)-off, channel.DMABurst)
		s.regFrame = channel.AppendMemRead(s.regFrame[:0], channel.MemRead{Addr: addr + uint64(off), N: uint32(want)})
		//lint:allow sealed-boundary MemRead frames carry only a public (address, length) header; returned data is ciphertext on the sealed path
		resp, err := s.User.Direct(s.regFrame)
		poison(s.regFrame)
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
		poison(resp)
	}
	return nil
}

// RekeySession rotates the register channel's session secrets (see
// smapp.RekeySession), serialised against in-flight jobs.
func (s *System) RekeySession() error {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	return s.SM.RekeySession()
}
