package core

import (
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"time"

	"salus/internal/accel"
	"salus/internal/channel"
	"salus/internal/cryptoutil"
)

// batchTxnsPerJob is the secure register program of one job inside a
// batch frame: 8 writes (in-addr, in-len, out-addr, 4 params, start) and
// 2 reads (status, out-len).
const batchTxnsPerJob = 10

// epochTxnCount is the coalesced key/IV exchange riding the front of a
// fresh epoch's first batch frame.
const epochTxnCount = 4

// batchHalf is one half of the double-buffered device memory window:
// chunk N+1's inputs are DMA-written into the idle half while the host
// waits out chunk N's fabric run and reads its results back. A one-job
// plan has no next chunk to overlap with and gets all of device memory.
const batchHalf = accel.MemBytes / 2

// BatchResult is one job's outcome inside a batch. Transport- and
// session-level failures abort the whole batch (the caller re-dispatches);
// per-job outcomes — kernel mismatch, a non-done status, an implausible
// output length — land here without sinking their siblings.
type BatchResult struct {
	Output []byte
	Err    error
}

// batchJob is one planned job: its IV (its slot in the epoch's schedule,
// derived once for both directions) and its device-memory slot inside the
// chunk's buffer half.
type batchJob struct {
	idx     int // index into ws/results
	iv      [16]byte
	inAddr  uint64
	outAddr uint64
	outCap  uint64
}

// batchChunk is one secure frame's worth of jobs: bounded by the session
// epoch (so device and host IV schedules stay in lockstep), the memory
// half, and the channel's transaction-vector cap.
type batchChunk struct {
	jobs     []batchJob
	base     uint64 // buffer half base address
	newEpoch bool
	rotate   bool         // rekey the register channel before this chunk's frame
	key      []byte       // the new epoch's data key; set only with newEpoch
	block    cipher.Block // the epoch's data-key schedule, shared by its chunks
	baseIV   []byte
}

// SealedJob is one entry of a sealed batch: parameters in the clear (they
// are register values, not data), input sealed under the data key.
type SealedJob struct {
	Params [4]uint64
	Input  []byte
}

// RunSealed is the remote-data-owner job path for any number of jobs:
// every input arrives sealed under the provisioned data key, is opened
// inside the user enclave, offloaded, and its result returns sealed the
// same way (see readOutput); the plaintext never exists outside enclave or
// CL. results[i] receives job i's outcome; the caller owns results, which
// must hold one entry per job and is overwritten. A job whose input fails
// authentication is rejected alone. A non-nil return is a fault covering
// the whole call: outputs already sealed are dropped, results left zero.
//
// Per chunk, every job's register program rides ONE sealed
// MsgSecureRegBatch frame (one counter tick), a fresh epoch's 4-write
// key/IV exchange rides its front, and the host waits out the fabric once.
// Inputs of chunk N+1 are DMA-written into the idle half of device memory
// while chunk N runs; a lone job gets all of it (see planBatch). Per-job
// IVs are the contiguous accel.JobIV range from the session counter.
func (s *System) RunSealed(kernelName string, jobs []SealedJob, results []BatchResult) error {
	if len(results) != len(jobs) {
		return fmt.Errorf("core: %d results for %d sealed jobs", len(results), len(jobs))
	}
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	start := time.Now()
	defer mCoreSealedJob.Since(start)
	clear(results)
	err := s.runSealedLocked(kernelName, jobs, results)
	s.clearScratch()
	if err != nil {
		for _, r := range results {
			dropOutput(r.Output)
		}
		clear(results)
	}
	return err
}

// RunJobSealed is RunSealed for one job.
func (s *System) RunJobSealed(kernelName string, params [4]uint64, sealedInput []byte) ([]byte, error) {
	var res [1]BatchResult
	if err := s.RunSealed(kernelName, []SealedJob{{params, sealedInput}}, res[:]); err != nil {
		return nil, err
	}
	return res[0].Output, res[0].Err
}

// RunJobSealedBatch is RunSealed into a results slice of its own.
func (s *System) RunJobSealedBatch(kernelName string, jobs []SealedJob) ([]BatchResult, error) {
	results := make([]BatchResult, len(jobs))
	if err := s.RunSealed(kernelName, jobs, results); err != nil {
		return nil, err
	}
	return results, nil
}

// runSealedLocked opens every sealed input inside the user enclave into
// the System's workload scratch and runs it through the job engine, each
// output sealed under the data key. A job whose input fails authentication
// is rejected alone in results. Callers hold jobMu and clear the scratch
// afterwards (clearScratch).
//
// The inputs are opened side by side into s.plain, the System's plaintext
// scratch, which is zeroed before the call returns. A call whose inputs
// outgrow device memory opens into a one-off buffer the System does not
// keep (zeroed all the same).
func (s *System) runSealedLocked(kernelName string, jobs []SealedJob, results []BatchResult) error {
	if _, err := s.phase.Next(EventServe); err != nil {
		return err
	}
	k, ok := accel.KernelByName(kernelName)
	if !ok {
		return fmt.Errorf("core: unknown kernel %q", kernelName)
	}
	aead, err := s.User.DataAEAD()
	if err != nil {
		return err
	}
	total := 0
	for _, j := range jobs {
		total += max(len(j.Input)-cryptoutil.SealOverhead, 0)
	}
	plain := s.plain
	if cap(plain) < total {
		plain = make([]byte, 0, total)
		if total <= accel.MemBytes {
			s.plain = plain
		}
	}
	used := 0
	defer func() { clear(plain[:used]) }()
	ws := s.workloads(len(jobs))
	for i, j := range jobs {
		input, err := cryptoutil.AppendOpenWith(plain[used:used], aead, j.Input, jobInputAD)
		if err != nil {
			results[i].Err = fmt.Errorf("core: sealed job input rejected: %w", err)
			continue
		}
		used += len(input)
		ws[i] = accel.Workload{Kernel: k, Params: j.Params, Input: input}
	}
	return s.runJobBatchLocked(ws, results, aead)
}

// workloads returns the System's workload scratch sized for a call of n
// jobs, the plan scratch grown with it. Callers hold jobMu.
func (s *System) workloads(n int) []accel.Workload {
	if cap(s.ws) < n {
		s.ws, s.plan = make([]accel.Workload, n), make([]batchJob, n)
	}
	s.ws = s.ws[:n]
	return s.ws
}

// clearScratch zeroes what the call in flight used of the job scratch: its
// workloads (each Input is a job's plaintext), planned jobs and chunks (a
// chunk holds its epoch's data key and key schedule), so no call's data
// outlives it. Callers hold jobMu.
func (s *System) clearScratch() {
	clear(s.ws)
	clear(s.plan[:len(s.ws)])
	clear(s.chunks)
	s.ws, s.chunks = s.ws[:0], s.chunks[:0]
}

// runJobBatchLocked is the one job engine behind every entry point: it
// plans, pipelines and executes ws; callers hold jobMu. Entries of results
// whose Err is already set are skipped (the sealed path uses this for
// inputs that failed authentication). Outputs are plaintext with a nil
// seal and sealed under it otherwise. The plan lives in the System's chunk
// and job scratch. A non-nil return is a transport/session fault covering
// the whole call; the session is invalidated and the caller must discard
// results. Only the memory window (planBatch) depends on len(ws).
func (s *System) runJobBatchLocked(ws []accel.Workload, results []BatchResult, seal cipher.AEAD) (err error) {
	if _, err := s.phase.Next(EventServe); err != nil {
		return err
	}
	// Any failure leaves host and engine potentially disagreeing about the
	// IV schedule position — drop the cached session so the next call
	// re-exchanges and resynchronises.
	defer func() {
		if err != nil {
			s.invalidateSession()
		}
	}()

	chunks, err := s.planBatch(ws, results, s.chunks[:0], s.plan[:0])
	s.chunks = chunks
	if err != nil {
		return err
	}
	if len(chunks) == 0 {
		return nil
	}

	// Encrypt + DMA-write the first chunk up front; every later chunk's
	// write overlaps its predecessor's fabric wait and read-back.
	if err := s.writeChunkInputs(ws, &chunks[0]); err != nil {
		return deviceFault(err)
	}

	for ci := range chunks {
		chunk := &chunks[ci]
		if chunk.rotate {
			if err := s.SM.RekeySession(); err != nil {
				return deviceFault(fmt.Errorf("core: session rotation: %w", err))
			}
		}

		s.buildChunkTxns(ws, chunk)
		if err := s.issueTxns(); err != nil {
			return deviceFault(err)
		}
		// The device has installed the epoch and consumed one IV slot per
		// CtrlStart (success or failure); mirror that before any per-job
		// verdicts so the schedules cannot drift.
		if chunk.newEpoch {
			for i, r := range s.batchRes[:epochTxnCount] {
				if !r.OK {
					return deviceFault(fmt.Errorf("core: secure key exchange write %d rejected", i))
				}
			}
			s.sessKey, s.sessBlock, s.sessIV, s.sessJobs = chunk.key, chunk.block, chunk.baseIV, 0
			mSessionExchanges.Inc()
		}
		s.sessJobs += uint32(len(chunk.jobs))

		// Overlap the next chunk's DMA writes with this chunk's fabric
		// wait and read-back: the idle buffer half is untouched by either.
		var pending chan error
		if ci+1 < len(chunks) {
			done, next := make(chan error, 1), &chunks[ci+1]
			go func() { done <- s.writeChunkInputs(ws, next) }()
			pending = done
		}

		// On a physical board the host now blocks until the fabric raises
		// done for the last job of the chunk; model that idle wait once
		// per chunk — the amortisation the batch path exists for.
		if s.Timing.RealJobLatency > 0 {
			time.Sleep(s.Timing.RealJobLatency)
		}

		s.readChunkResults(ws, results, chunk, seal)
		if pending != nil {
			if err := <-pending; err != nil {
				return deviceFault(err)
			}
		}
	}
	return nil
}

// planBatch assigns every runnable job an IV-schedule slot and a device
// memory slot, splitting the batch into chunks at epoch, memory-window and
// transaction-cap boundaries; chunks and jobs are appended to the given
// backing store (jobs must have room for len(ws)), and the chunks are
// returned even with an error, so the caller can clear their keys. A job's
// slot holds its input and the most output its kernel can produce
// (accel.Kernel.OutputCap). It pre-generates fresh epoch key material so
// chunk inputs can be encrypted (and DMA-written) ahead of the frame that
// installs the epoch on the device.
func (s *System) planBatch(ws []accel.Workload, results []BatchResult, chunks []batchChunk, jobs []batchJob) ([]batchChunk, error) {
	maxJobsPerFrame := (channel.MaxBatchTxns - epochTxnCount) / batchTxnsPerJob
	window := uint64(batchHalf)
	if len(ws) == 1 {
		window = accel.MemBytes
	}

	sessBlock, sessIV, sessJobs := s.sessBlock, s.sessIV, int(s.sessJobs)
	hadSession := sessBlock != nil
	var cur *batchChunk
	var cursor uint64

	openChunk := func() error {
		c := batchChunk{base: uint64(len(chunks)%2) * batchHalf}
		if sessBlock == nil || sessJobs >= s.rekeyEvery {
			key, block, baseIV, err := s.newEpochSecrets()
			if err != nil {
				return err
			}
			c.newEpoch, c.key, c.block, c.baseIV = true, key, block, baseIV
			c.rotate = hadSession
			hadSession = true
			sessBlock, sessIV, sessJobs = block, baseIV, 0
		} else {
			// Continue the live epoch: encrypt under the cached secrets.
			c.block, c.baseIV = sessBlock, sessIV
		}
		chunks = append(chunks, c)
		cur = &chunks[len(chunks)-1]
		cursor = cur.base
		return nil
	}

	for i, w := range ws {
		if results[i].Err != nil {
			continue // pre-rejected (sealed input failed authentication)
		}
		if w.Kernel == nil {
			results[i].Err = fmt.Errorf("core: job %d has no kernel", i)
			continue
		}
		if w.Kernel.Name() != s.Package.KernelName {
			results[i].Err = fmt.Errorf("core: workload targets %s, deployed CL is %s", w.Kernel.Name(), s.Package.KernelName)
			continue
		}
		inLen := uint64(len(w.Input))
		outCap := uint64(w.Kernel.OutputCap(w.Params, len(w.Input)))
		slot := alignUp(inLen) + alignUp(outCap)
		if slot > window {
			results[i].Err = fmt.Errorf("core: job %d needs a %d-byte slot for its input and output, more than the %d-byte window; a single job gets all %d bytes of device memory",
				i, slot, window, accel.MemBytes)
			continue
		}
		needNew := cur == nil ||
			len(cur.jobs) >= maxJobsPerFrame ||
			sessJobs >= s.rekeyEvery ||
			cursor+slot > cur.base+window
		if needNew {
			if err := openChunk(); err != nil {
				return chunks, err
			}
		}
		jobs = append(jobs, batchJob{
			idx:     i,
			iv:      accel.JobIV(cur.baseIV, uint32(sessJobs)),
			inAddr:  cursor,
			outAddr: cursor + alignUp(inLen),
			outCap:  outCap,
		})
		cur.jobs = jobs[len(jobs)-len(cur.jobs)-1:]
		cursor += slot
		sessJobs++
	}
	return chunks, nil
}

// buildChunkTxns assembles the chunk's register program into the reusable
// s.batchTxns scratch: the 4-write key/IV exchange for a fresh epoch, then
// every job's 10-transaction program in order.
func (s *System) buildChunkTxns(ws []accel.Workload, chunk *batchChunk) {
	s.batchTxns = s.batchTxns[:0]
	if chunk.newEpoch {
		s.batchTxns = append(s.batchTxns,
			channel.RegTxn{Write: true, Addr: accel.RegKey1, Data: binary.BigEndian.Uint64(chunk.key[0:8])},
			channel.RegTxn{Write: true, Addr: accel.RegKey0, Data: binary.BigEndian.Uint64(chunk.key[8:16])},
			channel.RegTxn{Write: true, Addr: accel.RegIV1, Data: binary.BigEndian.Uint64(chunk.baseIV[0:8])},
			channel.RegTxn{Write: true, Addr: accel.RegIV0, Data: binary.BigEndian.Uint64(chunk.baseIV[8:16])},
		)
	}
	for _, j := range chunk.jobs {
		w := ws[j.idx]
		s.batchTxns = append(s.batchTxns,
			channel.RegTxn{Write: true, Addr: accel.RegInAddr, Data: j.inAddr},
			channel.RegTxn{Write: true, Addr: accel.RegInLen, Data: uint64(len(w.Input))},
			channel.RegTxn{Write: true, Addr: accel.RegOutAddr, Data: j.outAddr},
			channel.RegTxn{Write: true, Addr: accel.RegParam0, Data: w.Params[0]},
			channel.RegTxn{Write: true, Addr: accel.RegParam1, Data: w.Params[1]},
			channel.RegTxn{Write: true, Addr: accel.RegParam2, Data: w.Params[2]},
			channel.RegTxn{Write: true, Addr: accel.RegParam3, Data: w.Params[3]},
			channel.RegTxn{Write: true, Addr: accel.RegCtrl, Data: accel.CtrlStart},
			channel.RegTxn{Addr: accel.RegStatus},
			channel.RegTxn{Addr: accel.RegOutLen},
		)
	}
}

// issueTxns sends the register program in s.batchTxns as one sealed
// MsgSecureRegBatch frame, one result per transaction into s.batchRes,
// whatever the number of jobs: addresses, lengths and kernel parameters
// are MAC'd with the key, IV and start they come with, so the shell can
// neither read nor rewrite any of them.
func (s *System) issueTxns() (err error) {
	if s.batchRes, err = s.User.SecureRegBatch(s.batchTxns, s.batchRes[:0]); err != nil {
		return fmt.Errorf("core: secure batch: %w", err)
	}
	return nil
}

// writeChunkInputs encrypts every job input under its planned per-job IV
// and DMA-writes it into the chunk's buffer half over the direct channel.
// The chunk carries its own epoch secrets, so this can run ahead of the
// frame that installs them on the device (the pipelined overlap).
func (s *System) writeChunkInputs(ws []accel.Workload, chunk *batchChunk) error {
	for i := range chunk.jobs {
		// By index: cipher.NewCTR leaks its IV, so slicing a loop copy's
		// iv would move the copy to the heap on every iteration.
		j := &chunk.jobs[i]
		if err := s.writeInput(j.inAddr, chunk.block, j.iv[:], ws[j.idx].Input); err != nil {
			return err
		}
	}
	return nil
}

// readChunkResults parses the chunk's result vector and reads every
// successful job's output back over the direct channel. Per-job verdicts
// land in results.
func (s *System) readChunkResults(ws []accel.Workload, results []BatchResult, chunk *batchChunk, seal cipher.AEAD) {
	res := s.batchRes
	if chunk.newEpoch {
		res = res[epochTxnCount:]
	}
	for k, j := range chunk.jobs {
		r := res[k*batchTxnsPerJob : (k+1)*batchTxnsPerJob]
		results[j.idx].Output, results[j.idx].Err = s.readOneJob(ws[j.idx], chunk, j, r, seal)
	}
}

// readOneJob applies one job's verdict from its 10-transaction result
// window and reads back its output. The CL's 64-bit output length must fit
// the job's slot, or a hostile CL could have the host read a neighbour's.
func (s *System) readOneJob(w accel.Workload, chunk *batchChunk, j batchJob, r []channel.RegResult, seal cipher.AEAD) ([]byte, error) {
	for t := 0; t < 8; t++ {
		if !r[t].OK {
			return nil, deviceFault(fmt.Errorf("core: register write %d rejected", t))
		}
	}
	status, outLen := r[8], r[9]
	if !status.OK || !outLen.OK {
		return nil, deviceFault(fmt.Errorf("core: status read-back rejected"))
	}
	if status.Data != accel.StatusDone {
		return nil, deviceFault(fmt.Errorf("core: accelerator finished with status %d", status.Data))
	}
	if outLen.Data > j.outCap {
		return nil, deviceFault(fmt.Errorf("core: CL reports implausible output length %d at %#x (slot capacity is %d bytes)",
			outLen.Data, j.outAddr, j.outCap))
	}
	return s.readOutput(j.outAddr, int(outLen.Data), w.Kernel.EncryptOutput(), chunk.block, j.iv, seal)
}

// alignUp rounds a device-memory slot length up to the DMA burst
// alignment granularity.
func alignUp(n uint64) uint64 {
	const a = 64
	return (n + a - 1) &^ (a - 1)
}
