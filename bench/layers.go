package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"salus/internal/accel"
	"salus/internal/channel"
	"salus/internal/core"
	"salus/internal/cryptoutil"
	"salus/internal/federation"
	"salus/internal/remote"
	"salus/internal/rpc"
	"salus/internal/sched"
)

// registryLayers fills the count- and histogram-backed layer metrics from
// the registry's change over a phase that verified jobs jobs.
func registryLayers(reg *registryDelta, jobs int, vals map[string]float64) {
	n := float64(jobs)
	if n == 0 {
		return
	}
	vals["rpc.wire_bytes_per_job"] = (reg.counter("salus_rpc_client_tx_bytes_total") + reg.counter("salus_rpc_client_rx_bytes_total")) / n
	vals["rpc.calls_per_job"] = reg.counter("salus_rpc_client_calls_total") / n
	vals["rpc.server_handle_mean_us"] = reg.histMeanUs("salus_rpc_server_handle_seconds")
	vals["remote.shed_total"] = reg.counter("salus_remote_gateway_shed_total")
	vals["remote.rate_limited_total"] = reg.counter("salus_remote_rate_limited_total")
	vals["remote.redials_total"] = reg.counter("salus_remote_redials_total")
	vals["sched.wait_mean_us"] = reg.histMeanUs("salus_sched_wait_seconds")
	vals["sched.service_mean_us"] = reg.histMeanUs("salus_sched_service_seconds")
	vals["sched.submitted"] = reg.counter("salus_sched_submitted_total")
	vals["sched.completed"] = reg.counter("salus_sched_completed_total")
	vals["sched.overloaded"] = reg.counter("salus_sched_overloaded_total")
	vals["sched.deadline_shed"] = reg.counter("salus_sched_deadline_shed_total")
	vals["sched.redispatched"] = reg.counter("salus_sched_redispatched_total")
	vals["sched.queue_depth_end"] = reg.gauge("salus_sched_queue_depth")
	vals["core.session_exchanges_per_kjob"] = reg.counter("salus_session_exchanges_total") / n * 1000
	vals["core.rekeys"] = reg.counter("salus_session_rekeys_total")
}

// shellTotals sums the shells' transaction and byte counters.
func shellTotals(systems []*core.System) (txns, bytes int) {
	for _, sys := range systems {
		st := sys.Shell.Stats()
		txns += st.Transactions
		bytes += st.BytesIn + st.BytesOut
	}
	return txns, bytes
}

// timeNs times a sub-microsecond operation in batches and returns the
// median per-operation nanoseconds and the allocations per operation.
func timeNs(budget time.Duration, fn func() error) (ns, allocs float64, err error) {
	const batch = 256
	var per []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for start := time.Now(); len(per) < 5 || (len(per) < 400 && time.Since(start) < budget); {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return 0, 0, err
			}
		}
		per = append(per, float64(time.Since(t0))/batch)
	}
	runtime.ReadMemStats(&ms1)
	return median(per), float64(ms1.Mallocs-ms0.Mallocs) / float64(len(per)*batch), nil
}

// probeRig is a locally booted copy of a workload's serving stack whose
// data key the bench holds, so the replays can enter below the session.
type probeRig struct {
	closers
	key []byte
	sys *core.System
	sch *sched.Scheduler
	fed *federation.Federation
}

func newProbeRig(fed bool) (*probeRig, error) {
	p := &probeRig{}
	if fed {
		d, err := federation.BuildLocal(fedSpec(false))
		if err != nil {
			return nil, err
		}
		p.onClose(d.Close)
		p.key, p.fed, p.sys, p.sch = d.Key, d.Fed, d.RootSystems[0], d.Managers[0].Scheduler()
		return p, nil
	}
	systems, err := newBoards(2, "PRB", core.Timing{})
	if err != nil {
		return nil, err
	}
	if p.key, err = sched.BootSharedParallel(systems); err != nil {
		return nil, err
	}
	p.sch = sched.New(sched.Config{})
	p.onClose(p.sch.Close)
	for _, sys := range systems {
		if err := p.sch.Register(sys); err != nil {
			p.close()
			return nil, err
		}
	}
	p.sys = systems[0]
	return p, nil
}

// echoServer is a private rpc server whose handlers decode and encode the
// gateway's own wire types at the workload's sizes and do nothing else:
// what a call costs in framing, JSON and loopback TCP alone.
func echoServer(outLen int) (*rpc.Server, *rpc.Client, error) {
	srv := rpc.NewServer()
	out := make([]byte, outLen)
	srv.Handle("Echo.RunJob", rpc.Typed(func(remote.JobRequest) (remote.JobResponse, error) {
		return remote.JobResponse{SealedOutput: out}, nil
	}))
	srv.Handle("Echo.RunBatch", rpc.Typed(func(in remote.BatchRequest) (remote.BatchResponse, error) {
		resp := remote.BatchResponse{Results: make([]remote.BatchJobResult, len(in.Jobs))}
		for i := range resp.Results {
			resp.Results[i].SealedOutput = out
		}
		return resp, nil
	}))
	addr, err := srv.Listen(loopback)
	if err != nil {
		return nil, nil, err
	}
	c, err := rpc.Dial(addr)
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return srv, c, nil
}

func (w *closedLoop) traced(d time.Duration, tr *tracer) (map[string]float64, int, int, error) {
	vals := map[string]float64{}
	host := startHost()
	runtime.GC()
	r, err := w.deploy()
	if err != nil {
		return nil, 0, 0, err
	}
	defer r.close()
	var next atomic.Int64
	if ph := w.drive(r.sess, w.clients, time.Minute, int64(w.warm), &next, nil); ph.firstErr != nil {
		return nil, 0, 0, ph.firstErr
	}

	// Phase 1, the workload's own shape: counts per job.
	txn0, bytes0 := shellTotals(r.serving())
	var net0 time.Duration
	if r.fed != nil {
		net0 = r.fed.NetClock().Elapsed()
	}
	reg := startRegistry()
	full := w.drive(r.sess, w.clients, d/5, 0, &next, nil)
	reg.stop()
	txn1, bytes1 := shellTotals(r.serving())
	if full.jobs == 0 {
		return nil, 0, 0, fmt.Errorf("%s: no job verified: %v", w.name, full.firstErr)
	}
	registryLayers(reg, full.jobs, vals)
	vals["shell.transactions_per_job"] = float64(txn1-txn0) / float64(full.jobs)
	vals["shell.bytes_per_job"] = float64(bytes1-bytes0) / float64(full.jobs)
	vals["sched.rp_balance"] = rpBalance(r.scheds[0])
	vals["remote.attest_ms"] = msOf(r.attest)
	if r.fed != nil {
		routed, spilled := reg.counter("salus_federation_routed_total"), reg.counter("salus_federation_spill_total")
		vals["federation.spill_share"] = spilled / (routed + spilled)
		vals["federation.home_hit_share"] = routed / (routed + spilled)
		vals["federation.handoffs"] = float64(r.fed.Stats().Handoffs)
		vals["federation.net_modelled_ms_per_job"] = msOf(r.fed.NetClock().Elapsed()-net0) / float64(full.jobs)
	}

	// Phases 2 and 3, one client: untraced then traced latency.
	plain := w.drive(r.sess, 1, d/5, 0, &next, nil)
	traced := w.drive(r.sess, 1, d/5, 0, &next, tr)
	calls := durationsUs(traced.calls)
	callP50 := percentile(calls, 50)
	plainP50 := percentile(durationsUs(plain.calls), 50)
	vals["client.call_p99_us"] = percentile(calls, 99)
	vals["client.call_max_us"] = percentile(calls, 100)
	vals["trace.overhead_share"] = (callP50 - plainP50) / plainP50
	attempted := full.attempted + plain.attempted + traced.attempted
	failed := full.failed + plain.failed + traced.failed
	vals["client.fail_share"] = float64(failed) / float64(attempted)
	jobs := full.jobs + plain.jobs + traced.jobs
	r.close()
	runtime.GC() // drop the deployment's transcripts before the replay allocates its own

	// Phase 4: descending-entry-point replay on a rig whose key we hold.
	if err := w.replay(d*2/5, callP50, vals); err != nil {
		return nil, 0, 0, fmt.Errorf("%s: replay: %w", w.name, err)
	}
	host.finish(jobs, vals)
	return vals, attempted, failed, nil
}

// replay times each entry point beneath the session with the workload's
// inputs, then derives every layer's self time as its median minus the
// medians of the entries beneath it.
func (w *closedLoop) replay(d time.Duration, callP50 float64, vals map[string]float64) error {
	p, err := newProbeRig(w.name == wFed)
	if err != nil {
		return err
	}
	defer p.close()
	slice := d / 16
	us := func(min, max int, fn func() error) (float64, error) {
		med, _, err := timeMedian(slice, min, max, fn)
		return usOf(med), err
	}
	n := w.jobsPerCall()
	kernel, _ := accel.KernelByName(w.in.kernel)
	sealed := make([][]byte, len(w.in.jobs))
	for i := range w.in.jobs {
		if sealed[i], err = cryptoutil.Seal(p.key, w.in.jobs[i].input, []byte("job-input")); err != nil {
			return err
		}
	}
	batchOf := func(i int) []core.SealedJob {
		jobs := make([]core.SealedJob, n)
		for k := range jobs {
			jobs[k] = core.SealedJob{Params: w.in.at(i*n + k).params, Input: sealed[(i*n+k)%len(sealed)]}
		}
		return jobs
	}
	opt := sched.SubmitOptions{Class: sched.ClassStandard}
	i := 0
	j0 := w.in.at(0)
	readStatus := channel.RegTxn{Addr: accel.RegStatus}
	txns := make([]channel.RegTxn, 64)
	for k := range txns {
		txns[k] = readStatus
	}

	// Pure leaves first, on a small heap: on a heap the transcripts have
	// grown, every fresh buffer is first-touch memory and a 1 MiB copy
	// costs ten times its steady price.
	iv := make([]byte, 16)
	ctr, err := us(5, 400, func() error { _, err := cryptoutil.XORKeyStreamCTR(p.key, iv, j0.input); return err })
	if err != nil {
		return err
	}
	sealedOut, err := cryptoutil.Seal(p.key, j0.golden, []byte("job-output"))
	if err != nil {
		return err
	}
	enclaveSealOpen, err := us(5, 400, func() error {
		if _, err := cryptoutil.Open(p.key, sealed[0], []byte("job-input")); err != nil {
			return err
		}
		_, err := cryptoutil.Seal(p.key, j0.golden, []byte("job-output"))
		return err
	})
	if err != nil {
		return err
	}
	clientSealOpen, err := us(5, 400, func() error {
		if _, err := cryptoutil.Seal(p.key, j0.input, []byte("job-input")); err != nil {
			return err
		}
		_, err := cryptoutil.Open(p.key, sealedOut, []byte("job-output"))
		return err
	})
	if err != nil {
		return err
	}
	compute, err := us(5, 400, func() error { _, err := kernel.Compute(j0.params, j0.input); return err })
	if err != nil {
		return err
	}
	// Channel framing on its own, single and batched.
	sessKey := cryptoutil.RandomKey(cryptoutil.SessionKeySize)
	ns, allocs, err := timeNs(slice, func() error {
		frame, err := channel.SealRegRequest(sessKey, 7, readStatus)
		if err != nil {
			return err
		}
		_, err = channel.OpenRegRequest(sessKey, 7, frame)
		return err
	})
	if err != nil {
		return err
	}
	vals["channel.seal_open_ns"], vals["channel.seal_open_allocs"] = ns, allocs
	sealer, err := channel.NewSealer(sessKey)
	if err != nil {
		return err
	}
	var opened []channel.RegTxn
	ns, allocs, err = timeNs(slice, func() error {
		frame, err := sealer.SealRegBatchRequest(7, txns)
		if err != nil {
			return err
		}
		opened, err = sealer.OpenRegBatchRequest(7, frame, opened)
		return err
	})
	if err != nil {
		return err
	}
	vals["channel.batch_ns_per_txn"], vals["channel.batch_allocs"] = ns/float64(len(txns)), allocs

	// Gateway pieces: admission on its own, and an rpc echo at wire size.
	adm := remote.NewAdmission(remote.AdmissionConfig{TenantRate: 1e9, TenantBurst: 1e9, MaxP99: time.Hour})
	admitNs, _, err := timeNs(slice, func() error { return adm.Admit("bench", sched.ClassStandard, n) })
	if err != nil {
		return err
	}
	vals["remote.admit_ns"] = admitNs
	srv, c, err := echoServer(len(sealedOut))
	if err != nil {
		return err
	}
	defer srv.Close()
	defer c.Close()
	echoCall := func() error {
		if w.batch == 0 {
			var resp remote.JobResponse
			return c.Call("Echo.RunJob", remote.JobRequest{Kernel: w.in.kernel, Params: j0.params, SealedInput: sealed[0], Class: "standard"}, &resp)
		}
		req := remote.BatchRequest{Kernel: w.in.kernel, Jobs: make([]remote.BatchJob, n), Class: "standard"}
		for k := range req.Jobs {
			req.Jobs[k] = remote.BatchJob{Params: j0.params, SealedInput: sealed[k%len(sealed)]}
		}
		var resp remote.BatchResponse
		return c.Call("Echo.RunBatch", req, &resp)
	}
	echo, err := us(20, 400, echoCall)
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	const echoRuns = 50
	for k := 0; k < echoRuns; k++ {
		if err := echoCall(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)
	vals["rpc.echo_rtt_us"], vals["rpc.allocs_per_call"] = echo, float64(ms1.Mallocs-ms0.Mallocs)/echoRuns

	// The register and DMA frames one job sends, each on its own.
	secureReg, err := us(20, 400, func() error { _, err := p.sys.User.SecureReg(readStatus); return err })
	if err != nil {
		return err
	}
	var dst []channel.RegResult
	secureBatch, err := us(20, 400, func() (err error) { dst, err = p.sys.User.SecureRegBatch(txns, dst[:0]); return err })
	if err != nil {
		return err
	}
	rekey, err := us(20, 400, p.sys.RekeySession)
	if err != nil {
		return err
	}
	directFrame := channel.EncodeDirectReg(readStatus)
	directReg, err := us(20, 400, func() error {
		//lint:allow sealed-boundary the direct register path is the paper's unprotected channel; the frame reads a public status register
		_, err := p.sys.User.Direct(directFrame)
		return err
	})
	if err != nil {
		return err
	}
	dma, err := us(5, 400, func() error {
		frame, err := channel.EncodeMemWrite(channel.MemWrite{Addr: 0, Data: j0.input})
		if err != nil {
			return err
		}
		//lint:allow sealed-boundary DMA timing probe: the payload is a generated benchmark input on a rig no data owner uses, not owner data
		if _, err := p.sys.User.Direct(frame); err != nil {
			return err
		}
		//lint:allow sealed-boundary MemRead frames carry only a public (address, length) header
		_, err = p.sys.User.Direct(channel.EncodeMemRead(channel.MemRead{Addr: 0, N: uint32(len(j0.golden))}))
		return err
	})
	if err != nil {
		return err
	}
	vals["smapp.secure_reg_us"], vals["smapp.secure_reg_batch64_us"], vals["smapp.rekey_us"] = secureReg, secureBatch, rekey
	vals["shell.direct_reg_us"] = directReg
	vals["shell.dma_mb_per_s"] = float64(len(j0.input)+len(j0.golden)) / dma
	vals["core.ctr_us"], vals["core.enclave_seal_open_us"] = ctr, enclaveSealOpen
	vals["client.seal_open_us"], vals["accel.compute_us"] = clientSealOpen*float64(n), compute

	// Entries beneath the session, last and bottom-up: each run leaves its
	// frames in the shell transcript, so the heap grows from here on.
	var eFed, eSched, eCore float64
	if eCore, err = us(5, 400, func() error {
		i++
		if w.batch == 0 {
			_, err := p.sys.RunJobSealed(w.in.kernel, w.in.at(i).params, sealed[i%len(sealed)])
			return err
		}
		res, err := p.sys.RunJobSealedBatch(w.in.kernel, batchOf(i))
		if err != nil {
			return err
		}
		for _, r := range res {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if eSched, err = us(5, 400, func() error {
		i++
		if w.batch == 0 {
			_, err := p.sch.SubmitSealedOpts(w.in.kernel, w.in.at(i).params, sealed[i%len(sealed)], opt).Wait()
			return err
		}
		for _, f := range p.sch.SubmitSealedBatchOpts(w.in.kernel, batchOf(i), opt) {
			if _, err := f.Wait(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if p.fed != nil {
		keys := w.keys
		if eFed, err = us(5, 400, func() error {
			i++
			res, err := p.fed.Submit("", keys[i%len(keys)], w.in.kernel, w.in.at(i).params, sealed[i%len(sealed)], opt)
			if err != nil {
				return err
			}
			_, err = res.Future.Wait()
			return err
		}); err != nil {
			return err
		}
		ns, _, err := timeNs(slice, func() error {
			i++
			_, _, _, err := p.fed.Route("", keys[i%len(keys)])
			return err
		})
		if err != nil {
			return err
		}
		vals["federation.route_ns"] = ns
	}
	if w.batch == 0 {
		vals["core.job_sealed_us"] = eCore
	} else {
		vals["core.batch64_us"] = eCore
	}

	// Self times: a layer's median minus the medians beneath it. One
	// single job crosses 1 secure start, 9 direct register frames, one DMA
	// write and read, CTR in and out, the enclave's open and seal, and
	// the kernel; a batch crosses the per-job data path n times and one
	// sealed register frame.
	perJob := enclaveSealOpen + 2*ctr + dma + compute
	beneathCore := perJob + secureReg + 9*directReg
	if w.batch > 0 {
		beneathCore = float64(n)*perJob + secureBatch
	}
	coreSelf := eCore - beneathCore
	schedSelf := eSched - eCore
	below := eSched
	var fedSelf float64
	if p.fed != nil {
		fedSelf, below = eFed-eSched, eFed
	}
	gatewaySelf := callP50 - vals["client.seal_open_us"] - echo - below
	vals["core.job_self_us"], vals["sched.dispatch_self_us"] = coreSelf, schedSelf
	vals["federation.submit_self_us"], vals["remote.gateway_self_us"] = fedSelf, gatewaySelf
	// The echo already pays the gateway's framing, so the gateway's
	// residual is time the replays fail to explain, as is any self time
	// that came out negative.
	explained := vals["client.seal_open_us"] + echo + max(0, fedSelf) + max(0, schedSelf) + max(0, coreSelf) + beneathCore
	vals["trace.unattributed_share"] = math.Abs(callP50-explained) / callP50
	return nil
}
