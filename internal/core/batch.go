package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"salus/internal/accel"
	"salus/internal/channel"
	"salus/internal/cryptoutil"
	"salus/internal/metrics"
)

// Batch-path metrics: whole-batch on-board latency plus the job count, so
// the amortisation factor (jobs per secure frame / per fabric wait) is
// directly observable.
var (
	mCoreBatch     = metrics.Default().Histogram("salus_core_batch_seconds")
	mCoreBatchJobs = metrics.Default().Counter("salus_core_batch_jobs_total")
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
// waits out chunk N's fabric run and reads its results back.
const batchHalf = accel.MemBytes / 2

// BatchResult is one job's outcome inside a batch. Transport- and
// session-level failures abort the whole batch (the caller re-dispatches);
// per-job outcomes — kernel mismatch, a non-done status, an implausible
// output length — land here without sinking their siblings.
type BatchResult struct {
	Output []byte
	Err    error
}

// batchJob is one planned job: its IV-schedule slot and its device-memory
// slot inside the chunk's buffer half.
type batchJob struct {
	idx     int // index into ws/results
	ivIdx   uint32
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
	rotate   bool // rekey the register channel before this chunk's frame
	key      []byte
	baseIV   []byte
}

// RunJobBatch executes a batch of workloads as a first-class unit: per
// chunk, every job's register program rides ONE sealed MsgSecureRegBatch
// frame (one counter tick for the whole vector), a fresh session epoch's
// 4-write key/IV exchange is coalesced into the front of the same frame,
// and the host waits out the fabric exactly once per chunk instead of
// once per job. Inputs of chunk N+1 are DMA-written into the idle half of
// the double-buffered device memory window while chunk N runs and reads
// back. Per-job IVs are the contiguous accel.JobIV range starting at the
// session counter, so sealing stays per-job-unique exactly as on the
// single-job path.
func (s *System) RunJobBatch(ws []accel.Workload) ([]BatchResult, error) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	start := time.Now()
	defer mCoreBatch.Since(start)
	results := make([]BatchResult, len(ws))
	if err := s.runJobBatchLocked(ws, results, nil); err != nil {
		return nil, err
	}
	return results, nil
}

// SealedJob is one entry of a sealed batch: parameters in the clear (they
// are register values, not data), input sealed under the data key.
type SealedJob struct {
	Params [4]uint64
	Input  []byte
}

// RunJobSealedBatch is the remote-data-owner batch path: every input
// arrives sealed under the provisioned data key, is opened inside the
// user enclave, offloaded through the batched data path, and every result
// returns sealed the same way (read back and sealed in place, see
// readOutput). A job whose input fails authentication is rejected
// individually; its siblings still run.
func (s *System) RunJobSealedBatch(kernelName string, jobs []SealedJob) ([]BatchResult, error) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	start := time.Now()
	defer mCoreBatch.Since(start)
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
	results := make([]BatchResult, len(jobs))
	ws := make([]accel.Workload, len(jobs))
	for i, j := range jobs {
		input, err := cryptoutil.Open(dataKey, j.Input, jobInputAD)
		if err != nil {
			results[i].Err = fmt.Errorf("core: sealed job input rejected: %w", err)
			continue
		}
		ws[i] = accel.Workload{Kernel: k, Params: j.Params, Input: input}
	}
	if err := s.runJobBatchLocked(ws, results, dataKey); err != nil {
		return nil, err
	}
	return results, nil
}

// runJobBatchLocked plans, pipelines and executes the batch; callers hold
// jobMu. Entries of results whose Err is already set are skipped (the
// sealed path uses this for inputs that failed authentication). Outputs
// are plaintext with a nil sealKey and sealed under it otherwise. A
// non-nil return is a transport/session fault covering the whole batch;
// the session is invalidated and the caller must discard results.
func (s *System) runJobBatchLocked(ws []accel.Workload, results []BatchResult, sealKey []byte) (err error) {
	if !s.booted {
		return fmt.Errorf("core: system not booted; run SecureBoot first")
	}
	defer func() {
		if err != nil {
			s.invalidateSession()
		}
	}()

	chunks, err := s.planBatch(ws, results)
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
		s.batchRes, err = s.User.SecureRegBatch(s.batchTxns, s.batchRes[:0])
		if err != nil {
			return deviceFault(fmt.Errorf("core: secure batch: %w", err))
		}
		// The device has installed the epoch and consumed one IV slot per
		// CtrlStart (success or failure); mirror that before any per-job
		// verdicts so the schedules cannot drift.
		if chunk.newEpoch {
			s.sessKey, s.sessIV, s.sessJobs = chunk.key, chunk.baseIV, 0
			mSessionExchanges.Inc()
		}
		s.sessJobs += uint32(len(chunk.jobs))

		// Overlap the next chunk's DMA writes with this chunk's fabric
		// wait and read-back: the idle buffer half is untouched by either.
		var writeErr error
		writeDone := make(chan struct{})
		if ci+1 < len(chunks) {
			next := &chunks[ci+1]
			go func() {
				writeErr = s.writeChunkInputs(ws, next)
				close(writeDone)
			}()
		} else {
			close(writeDone)
		}

		// On a physical board the host now blocks until the fabric raises
		// done for the last job of the chunk; model that idle wait once
		// per chunk — the amortisation the batch path exists for.
		if s.Timing.RealJobLatency > 0 {
			time.Sleep(s.Timing.RealJobLatency)
		}

		readErr := s.readChunkResults(ws, results, chunk, s.batchRes, sealKey)
		<-writeDone
		if readErr != nil {
			return readErr
		}
		if writeErr != nil {
			return deviceFault(writeErr)
		}
		mCoreBatchJobs.Add(uint64(len(chunk.jobs)))
	}
	return nil
}

// planBatch assigns every runnable job an IV-schedule slot and a device
// memory slot, splitting the batch into chunks at epoch, memory-half and
// transaction-cap boundaries. It pre-generates fresh epoch key material
// so chunk inputs can be encrypted (and DMA-written) ahead of the frame
// that installs the epoch on the device.
func (s *System) planBatch(ws []accel.Workload, results []BatchResult) ([]batchChunk, error) {
	maxJobsPerFrame := (channel.MaxBatchTxns - epochTxnCount) / batchTxnsPerJob

	sessKey, sessIV, sessJobs := s.sessKey, s.sessIV, int(s.sessJobs)
	hadSession := sessKey != nil
	var chunks []batchChunk
	var cur *batchChunk
	var cursor uint64

	openChunk := func() error {
		c := batchChunk{base: uint64(len(chunks)%2) * batchHalf}
		if sessKey == nil || sessJobs >= s.rekeyEvery {
			key, baseIV, err := s.newEpochSecrets()
			if err != nil {
				return err
			}
			c.newEpoch, c.key, c.baseIV = true, key, baseIV
			c.rotate = hadSession
			hadSession = true
			sessKey, sessIV, sessJobs = key, baseIV, 0
		} else {
			// Continue the live epoch: encrypt under the cached secrets.
			c.key, c.baseIV = sessKey, sessIV
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
			results[i].Err = fmt.Errorf("core: batch job %d has no kernel", i)
			continue
		}
		if w.Kernel.Name() != s.Package.KernelName {
			results[i].Err = fmt.Errorf("core: workload targets %s, deployed CL is %s", w.Kernel.Name(), s.Package.KernelName)
			continue
		}
		inLen := uint64(len(w.Input))
		outCap := 2*inLen + 4096
		slot := alignUp(inLen) + alignUp(outCap)
		if slot > batchHalf {
			results[i].Err = fmt.Errorf("core: batch job %d input (%d bytes) exceeds the pipelined buffer half (%d bytes); submit it as a single job", i, inLen, batchHalf)
			continue
		}
		needNew := cur == nil ||
			len(cur.jobs) >= maxJobsPerFrame ||
			sessJobs >= s.rekeyEvery ||
			cursor+slot > cur.base+batchHalf
		if needNew {
			if err := openChunk(); err != nil {
				return nil, err
			}
		}
		cur.jobs = append(cur.jobs, batchJob{
			idx:     i,
			ivIdx:   uint32(sessJobs),
			inAddr:  cursor,
			outAddr: cursor + alignUp(inLen),
			outCap:  outCap,
		})
		cursor += slot
		sessJobs++
	}
	return chunks, nil
}

// buildChunkTxns assembles the chunk's sealed register program into the
// reusable s.batchTxns scratch: the coalesced 4-write key/IV exchange for
// a fresh epoch, then every job's 10-transaction program in order.
func (s *System) buildChunkTxns(ws []accel.Workload, chunk *batchChunk) {
	s.batchTxns = s.batchTxns[:0]
	if chunk.newEpoch {
		s.batchTxns = append(s.batchTxns,
			channel.RegTxn{Write: true, Addr: accel.RegKey1, Data: beUint64(chunk.key[0:8])},
			channel.RegTxn{Write: true, Addr: accel.RegKey0, Data: beUint64(chunk.key[8:16])},
			channel.RegTxn{Write: true, Addr: accel.RegIV1, Data: beUint64(chunk.baseIV[0:8])},
			channel.RegTxn{Write: true, Addr: accel.RegIV0, Data: beUint64(chunk.baseIV[8:16])},
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

// writeChunkInputs encrypts every job input under its planned per-job IV
// and DMA-writes it into the chunk's buffer half over the direct channel.
// The chunk carries its own epoch secrets, so this can run ahead of the
// frame that installs them on the device (the pipelined overlap).
func (s *System) writeChunkInputs(ws []accel.Workload, chunk *batchChunk) error {
	for _, j := range chunk.jobs {
		if err := s.writeInput(j.inAddr, chunk.key, accel.JobIV(chunk.baseIV, j.ivIdx), ws[j.idx].Input); err != nil {
			return err
		}
	}
	return nil
}

// readChunkResults parses the chunk's result vector and reads every
// successful job's output back over the direct channel. Per-job verdicts
// land in results; only transport faults return an error.
func (s *System) readChunkResults(ws []accel.Workload, results []BatchResult, chunk *batchChunk, res []channel.RegResult, sealKey []byte) error {
	off := 0
	if chunk.newEpoch {
		for i := 0; i < epochTxnCount; i++ {
			if !res[i].OK {
				return deviceFault(fmt.Errorf("core: secure key exchange write %d rejected in batch frame", i))
			}
		}
		off = epochTxnCount
	}
	for k, j := range chunk.jobs {
		r := res[off+k*batchTxnsPerJob : off+(k+1)*batchTxnsPerJob]
		results[j.idx].Output, results[j.idx].Err = s.readOneJob(ws[j.idx], chunk, j, r, sealKey)
	}
	return nil
}

// readOneJob applies one job's verdict from its 10-transaction result
// window and reads back its output.
func (s *System) readOneJob(w accel.Workload, chunk *batchChunk, j batchJob, r []channel.RegResult, sealKey []byte) ([]byte, error) {
	for t := 0; t < 8; t++ {
		if !r[t].OK {
			return nil, deviceFault(fmt.Errorf("core: batched register write %d rejected", t))
		}
	}
	status, outLen := r[8], r[9]
	if !status.OK || !outLen.OK {
		return nil, deviceFault(fmt.Errorf("core: batched status read-back rejected"))
	}
	if status.Data != accel.StatusDone {
		return nil, deviceFault(fmt.Errorf("core: accelerator finished with status %d", status.Data))
	}
	if outLen.Data > j.outCap {
		return nil, deviceFault(fmt.Errorf("core: CL reports implausible output length %d at %#x (slot capacity is %d bytes)",
			outLen.Data, j.outAddr, j.outCap))
	}
	return s.readOutput(j.outAddr, int(outLen.Data), w.Kernel.EncryptOutput(), chunk.key, accel.JobIV(chunk.baseIV, j.ivIdx), sealKey)
}

// alignUp rounds a device-memory slot length up to the DMA burst
// alignment granularity.
func alignUp(n uint64) uint64 {
	const a = 64
	return (n + a - 1) &^ (a - 1)
}

func beUint64(b []byte) uint64 { return binary.BigEndian.Uint64(b) }
