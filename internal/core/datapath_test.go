package core

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	mrand "math/rand"
	"runtime"
	"slices"
	"testing"

	"salus/internal/accel"
	"salus/internal/bufpool"
	"salus/internal/channel"
	"salus/internal/cryptoutil"
	"salus/internal/shell"
)

// The job data path's buffer-ownership contract (DESIGN.md, "Job data
// path"): every payload-sized buffer has one owner, the shell keeps
// nothing, frames it sees are borrowed, and neither the bus nor device
// memory ever holds plaintext.

// sealedRig is a booted Conv system with the data owner's sealing key.
type sealedRig struct {
	*System
	key []byte
}

func newSealedRig(t testing.TB, opts ...func(*SystemConfig)) sealedRig {
	t.Helper()
	s := newTestSystem(t, opts...)
	if _, err := s.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	key, err := s.User.DataKey()
	if err != nil {
		t.Fatal(err)
	}
	return sealedRig{s, key}
}

func (r sealedRig) seal(t testing.TB, in []byte) []byte {
	t.Helper()
	sealed, err := cryptoutil.Seal(r.key, in, []byte("job-input"))
	if err != nil {
		t.Fatal(err)
	}
	return sealed
}

// run runs one sealed job and returns its opened result.
func (r sealedRig) run(t testing.TB, w accel.Workload, sealed []byte) []byte {
	t.Helper()
	out, err := r.RunJobSealed(w.Kernel.Name(), w.Params, sealed)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := cryptoutil.Open(r.key, out, []byte("job-output"))
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestShellRetainsNothing is the leak regression for a long-lived gateway:
// an honest shell keeps none of the traffic it carries, so the live heap
// after 20,000 small sealed jobs is where it was after the first 1,000.
func TestShellRetainsNothing(t *testing.T) {
	const jobs, settle = 20000, 1000
	r := newSealedRig(t)
	w := accel.GenConv(16, 16, 4, 1) // 2 KiB in, 784 B out
	sealed := r.seal(t, w.Input)
	var base uint64
	for i := 0; i < jobs; i++ {
		if _, err := r.RunJobSealed("Conv", w.Params, sealed); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if i+1 == settle {
			base = liveHeap()
		}
	}
	end := liveHeap()
	runtime.KeepAlive(r.System) // what it retains must count
	if end > base+1<<20 {
		t.Errorf("live heap grew %d KiB over %d jobs (%d → %d bytes): the job path retains traffic",
			(end-base)>>10, jobs-settle, base, end)
	}
}

// memWrites returns the MsgMemWrite frames among frames.
func memWrites(frames [][]byte) [][]byte {
	var out [][]byte
	for _, f := range frames {
		if channel.MsgType(f) == channel.MsgMemWrite {
			out = append(out, f)
		}
	}
	return out
}

// scratchFrames returns the frames among frames that the host builds in a
// reused scratch buffer: DMA bursts, sealed register programs and DMA read
// requests.
func scratchFrames(frames [][]byte) [][]byte {
	var out [][]byte
	for _, f := range frames {
		switch channel.MsgType(f) {
		case channel.MsgMemWrite, channel.MsgSecureRegBatch, channel.MsgMemRead:
			out = append(out, f)
		}
	}
	return out
}

// TestRecorderFramesSurviveBurstReuse: the shell borrows every DMA burst
// frame, sealed register program and DMA read request for one transaction
// only; the host rebuilds the next one in the same scratch (and under
// -race poisons the DMA frames with 0xA5 as soon as the transaction
// returns). What a Recorder captured must not move. A job's registers all
// ride the sealed program: its DMA stays direct, but no register
// transaction crosses the bus in the clear.
func TestRecorderFramesSurviveBurstReuse(t *testing.T) {
	opt, bus := recorded()
	r := newSealedRig(t, opt)
	w := accel.GenConv(16, 16, 4, 2)
	sealed := r.seal(t, w.Input)
	r.run(t, w, sealed)
	first := scratchFrames(bus.Frames())
	counts := map[byte]int{}
	for _, f := range bus.Frames() {
		counts[channel.MsgType(f)]++
	}
	if counts[channel.MsgMemWrite] == 0 || counts[channel.MsgSecureRegBatch] != 1 || counts[channel.MsgMemRead] == 0 {
		t.Fatalf("recorded frames by type %v: want DMA writes, one sealed register program and DMA reads", counts)
	}
	if counts[channel.MsgDirectReg] != 0 || counts[channel.MsgSecureReg] != 0 {
		t.Fatalf("recorded frames by type %v: a register transaction went out on its own", counts)
	}
	snapshot := make([][]byte, len(first))
	for i, f := range first {
		snapshot[i] = append([]byte(nil), f...)
	}
	for i := 0; i < 100; i++ {
		r.run(t, w, sealed)
	}
	for i, f := range scratchFrames(bus.Frames())[:len(first)] {
		if !bytes.Equal(f, snapshot[i]) {
			t.Fatalf("recorded frame %d (type %#x) changed after 100 further jobs", i, channel.MsgType(f))
		}
	}
}

// readKeeper is a shell that breaks the borrow contract: it keeps every DMA
// read response it carries without copying it.
type readKeeper struct {
	shell.PassThrough
	kept [][]byte
}

func (k *readKeeper) OnResponse(r []byte) []byte {
	if channel.MsgType(r) == channel.MsgMemData && len(r) > 5 {
		k.kept = append(k.kept, r)
	}
	return r
}

// TestKeptReadFrameIsPoisoned: a DMA read response is the SM logic's reused
// read frame, and under -race the host poisons it with 0xA5 as soon as it
// has copied the data out, so a shell that kept the frame reads garbage at
// once instead of the next read's data.
func TestKeptReadFrameIsPoisoned(t *testing.T) {
	if !raceEnabled {
		t.Skip("frames are poisoned only under the race detector")
	}
	keeper := &readKeeper{}
	r := newSealedRig(t, func(c *SystemConfig) { c.Interceptor = keeper })
	w := accel.GenConv(16, 16, 4, 1)
	r.run(t, w, r.seal(t, w.Input))
	if len(keeper.kept) == 0 {
		t.Fatal("the job read nothing back")
	}
	for i, f := range keeper.kept {
		if !bytes.Equal(f, bytes.Repeat([]byte{0xA5}, len(f))) {
			t.Errorf("kept read frame %d was not poisoned", i)
		}
	}
}

// plaintextWindows indexes every 32-byte window of the given plaintexts by
// a polynomial hash, so a bus frame can be scanned for any of them in one
// rolling pass.
type plaintextWindows []uint64

const (
	window   = 32
	hashBase = 0x100000001b3
)

// rolling calls f with the hash of every window of b.
func rolling(b []byte, f func(uint64)) {
	if len(b) < window {
		return
	}
	var h, top uint64 = 0, 1
	for i := 0; i < window; i++ {
		h = h*hashBase + uint64(b[i])
		if i > 0 {
			top *= hashBase
		}
	}
	f(h)
	for i := window; i < len(b); i++ {
		h = (h-uint64(b[i-window])*top)*hashBase + uint64(b[i])
		f(h)
	}
}

func indexPlaintexts(pts ...[]byte) plaintextWindows {
	var ix plaintextWindows
	for _, p := range pts {
		rolling(p, func(h uint64) { ix = append(ix, h) })
	}
	slices.Sort(ix)
	return ix
}

// leaks reports whether b contains any indexed plaintext window.
func (ix plaintextWindows) leaks(b []byte) bool {
	hit := false
	rolling(b, func(h uint64) {
		if _, ok := slices.BinarySearch(ix, h); ok {
			hit = true
		}
	})
	return hit
}

// readDRAM reads device memory the way a compromised shell would: a raw
// DMA read of its own.
func readDRAM(t *testing.T, s *System, addr uint64, n int) []byte {
	t.Helper()
	resp, err := s.Shell.TransactPartition(s.Partition(), channel.EncodeMemRead(channel.MemRead{Addr: addr, N: uint32(n)}))
	if err != nil {
		t.Fatal(err)
	}
	data, err := channel.DecodeMemData(resp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestJobDataNeverOnBusOrInDRAM: with every copy on the data path gone, a
// snooping shell still sees no plaintext input, nor the plaintext output
// of a kernel that encrypts its output (Table 4: inbound traffic is always
// encrypted, outbound per kernel), and device memory still holds each
// job's input encrypted (the fabric decrypts into its own buffer, not in
// place in DRAM). Covers a 1 MiB sealed Conv job, a sealed job of an
// output-encrypting kernel and a 64-job sealed batch.
func TestJobDataNeverOnBusOrInDRAM(t *testing.T) {
	type job struct {
		in, out []byte
		inAddr  uint64
	}
	check := func(t *testing.T, r sealedRig, bus *shell.Recorder, from int, jobs []job, encOut bool) {
		t.Helper()
		var pts [][]byte
		for _, j := range jobs {
			pts = append(pts, j.in)
			if encOut {
				pts = append(pts, j.out)
			}
		}
		ix := indexPlaintexts(pts...)
		frames := bus.Frames()[from:]
		for i, f := range frames {
			if ix.leaks(f) {
				t.Fatalf("frame %d (type %#x, %d bytes) carries plaintext job data", i, channel.MsgType(f), len(f))
			}
		}
		// Each job's input slot, as the last DMA write to it left it.
		written := map[uint64][]byte{}
		for _, f := range memWrites(frames) {
			m, err := channel.DecodeMemWrite(f)
			if err != nil {
				t.Fatal(err)
			}
			written[m.Addr] = m.Data
		}
		inIx := indexPlaintexts(func() [][]byte {
			var ins [][]byte
			for _, j := range jobs {
				ins = append(ins, j.in)
			}
			return ins
		}()...)
		for k, j := range jobs {
			dram := readDRAM(t, r.System, j.inAddr, len(j.in))
			if bytes.Equal(dram, j.in) || inIx.leaks(dram) {
				t.Fatalf("job %d: device memory holds plaintext input", k)
			}
			if len(jobs) == 1 && !bytes.Equal(dram, written[j.inAddr]) {
				t.Fatalf("job %d: device memory is not the ciphertext the host wrote", k)
			}
		}
	}

	for _, tc := range []struct {
		name string
		w    accel.Workload
	}{
		{"Conv 1 MiB", accel.GenConv(256, 256, 8, 3)},
		{"Affine, output encrypted", accel.GenAffine(64, 64, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt, bus := recorded()
			r := newSealedRig(t, opt, func(c *SystemConfig) { c.Kernel = tc.w.Kernel })
			from := len(bus.Frames())
			out := r.run(t, tc.w, r.seal(t, tc.w.Input))
			check(t, r, bus, from, []job{{tc.w.Input, out, 0}}, tc.w.Kernel.EncryptOutput())
		})
	}

	t.Run("sealed batch of 64", func(t *testing.T) {
		opt, bus := recorded()
		r := newSealedRig(t, opt)
		from := len(bus.Frames())
		ws := make([]accel.Workload, 64)
		sj := make([]SealedJob, len(ws))
		for i := range ws {
			ws[i] = accel.GenConv(16, 16, 4, int64(100+i))
			sj[i] = SealedJob{Params: ws[i].Params, Input: r.seal(t, ws[i].Input)}
		}
		res, err := r.RunJobSealedBatch("Conv", sj)
		if err != nil {
			t.Fatal(err)
		}
		// The last chunk's slots are intact; earlier chunks' slots may have
		// been reused by later ones, so every slot is checked by content.
		var addrs []uint64
		for _, f := range memWrites(bus.Frames()[from:]) {
			m, err := channel.DecodeMemWrite(f)
			if err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, m.Addr)
		}
		if len(addrs) != len(ws) {
			t.Fatalf("%d DMA writes for %d jobs", len(addrs), len(ws))
		}
		jobs := make([]job, len(ws))
		for i, br := range res {
			if br.Err != nil {
				t.Fatalf("job %d: %v", i, br.Err)
			}
			out, err := cryptoutil.Open(r.key, br.Output, []byte("job-output"))
			if err != nil {
				t.Fatal(err)
			}
			jobs[i] = job{ws[i].Input, out, addrs[i]}
		}
		check(t, r, bus, from, jobs, false)
	})
}

// allocKiB returns how many KiB one call of f allocates.
func allocKiB(f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
}

// TestSealedJobAllocBudget keeps the job data path's copy count in tier-1.
// The opened input, the fabric's decrypted input and output and the CL's
// DMA read frame are scratch their owners reuse (System, Core, Logic), so a
// sealed job may allocate only the enclave's seal buffer: 1 × output, plus
// Conv's scratch of three packed input rows (int64 per value: 48 KiB at
// 256 × 8) and 64 KiB of small change. RunJob's result is the plaintext
// buffer in place of the seal buffer: the same 1 × output. A batch job of
// 2 KiB also pays for its two CTR streams and for rounding its 784-byte
// output up to the allocator's 896-byte size class, 2 KiB a job in all.
//
// Measured on a warmed system before the copies were removed (1 MiB Conv
// input, 258,064 B output): RunJobSealed 8,987 KiB, RunJob 7,703 KiB, and a
// 64 × 2 KiB sealed batch 1,687 KiB. Before each key was expanded once, a
// batch job also expanded four AES key schedules and two GCM instances
// (5 KiB a job in all; the batch measured 783 KiB, then 554). Before the
// per-job payload buffers became owner-held scratch: 2,865, 1,841 and
// 531 KiB; then 561, 561 and 219; now, with the kernel computing into the
// fabric's output buffer, 305, 305 and 163.
func TestSealedJobAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := newSealedRig(t)
	bulk := accel.GenConv(256, 256, 8, 4)
	sealed := r.seal(t, bulk.Input)
	out := float64((256-2)*(256-2)*4) / 1024
	rows := float64(3*256*8*8) / 1024
	small := make([]SealedJob, 64)
	var smallOut float64
	for i := range small {
		w := accel.GenConv(16, 16, 4, int64(i))
		small[i] = SealedJob{Params: w.Params, Input: r.seal(t, w.Input)}
		smallOut += float64((16-2)*(16-2)*4) / 1024
	}
	runSealed := func() {
		if _, err := r.RunJobSealed("Conv", bulk.Params, sealed); err != nil {
			t.Fatal(err)
		}
	}
	runPlain := func() {
		if _, err := r.RunJob(bulk); err != nil {
			t.Fatal(err)
		}
	}
	runBatch := func() {
		if _, err := r.RunJobSealedBatch("Conv", small); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name   string
		run    func()
		budget float64
	}{
		{"RunJobSealed", runSealed, out + rows + 64},
		{"RunJob", runPlain, out + rows + 64},
		{"RunJobSealedBatch(64 × 2 KiB)", runBatch, smallOut + float64(len(small))*2 + 64},
	} {
		c.run() // warm: session, burst scratch, batch scratch
		got := allocKiB(c.run)
		t.Logf("%s: %.0f KiB (budget %.0f)", c.name, got, c.budget)
		if got > c.budget {
			t.Errorf("%s allocated %.0f KiB, budget %.0f", c.name, got, c.budget)
		}
	}
}

// warmAllocsPerJob runs a job through one session epoch, then returns its
// allocations a call averaged over four epochs, so the per-epoch rotation
// and key exchange are paid in proportion.
func warmAllocsPerJob(run func()) float64 {
	for i := 0; i < DefaultSessionRekeyEvery; i++ {
		run()
	}
	return testing.AllocsPerRun(4*DefaultSessionRekeyEvery, run)
}

// TestSealedJobAllocCount is the allocation-count tripwire beside the KiB
// budget above: a warm 2 KiB sealed job (see warmAllocsPerJob). Each key
// schedule is expanded once per key, and every frame and payload buffer is
// built in a buffer its owner reuses, so what is left is the job's own:
// the host's and the fabric's CTR streams and the sealed output. Measured
// at the commit before that: 81 allocations a job; then 10; then 8, since
// the per-job IV and Conv's weight table no longer allocate; then 4, since
// the opened input, the fabric's input buffer, the DMA write
// acknowledgement and the read-back frame are owner-held scratch; now 3,
// since the kernel computes into the fabric's output buffer.
func TestSealedJobAllocCount(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := newSealedRig(t)
	w := accel.GenConv(16, 16, 4, 1) // 2 KiB in, 784 B out
	sealed := r.seal(t, w.Input)
	run := func() {
		if _, err := r.RunJobSealed("Conv", w.Params, sealed); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 3
	allocs := warmAllocsPerJob(run)
	t.Logf("2 KiB RunJobSealed: %.2f allocations a job (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("2 KiB RunJobSealed: %.2f allocations a job, budget %d", allocs, budget)
	}
}

// TestLoneRunJobAllocCount pins the allocations of a warm lone plaintext
// 2 KiB RunJob (see warmAllocsPerJob) at exactly the 3 it makes — the two
// CTR streams and the result — so any new allocation on this path fails
// here. The per-job IV lives in the plan's job slot and Conv keeps its
// weights and packed rows on the stack, so neither allocates (9 before);
// the fabric's input buffer, the DMA write acknowledgement and the
// read-back frame are owner-held scratch (7 before); the kernel computes
// into the fabric's output buffer (4 before).
func TestLoneRunJobAllocCount(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := newSealedRig(t)
	w := accel.GenConv(16, 16, 4, 1)
	run := func() {
		if _, err := r.RunJob(w); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 3
	allocs := warmAllocsPerJob(run)
	t.Logf("2 KiB RunJob: %.2f allocations a job (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("2 KiB RunJob: %.2f allocations a job, budget %d", allocs, budget)
	}
}

// TestSealedPlaintextScratchZeroed: sealed inputs are opened into the
// System's one plaintext scratch, and no plaintext is left in it once the
// call returns — after a lone sealed job and after a sealed batch.
func TestSealedPlaintextScratchZeroed(t *testing.T) {
	r := newSealedRig(t)
	w := accel.GenConv(16, 16, 4, 1)
	sealed := r.seal(t, w.Input)
	check := func(after string, opened int) {
		t.Helper()
		scratch := r.plain[:cap(r.plain)]
		if len(scratch) < opened {
			t.Fatalf("after %s: the plaintext scratch has room for %d bytes, the call opened %d", after, len(scratch), opened)
		}
		if !bytes.Equal(scratch, make([]byte, len(scratch))) {
			t.Errorf("after %s: plaintext left in the scratch", after)
		}
	}
	r.run(t, w, sealed)
	check("RunJobSealed", len(w.Input))
	jobs := []SealedJob{{w.Params, sealed}, {w.Params, sealed}, {w.Params, sealed}}
	if _, err := r.RunJobSealedBatch("Conv", jobs); err != nil {
		t.Fatal(err)
	}
	check("a 3-job RunJobSealedBatch", 3*len(w.Input))
}

// TestJobScratchClearedAfterEveryCall: the workloads, chunks and planned
// jobs a call runs through are System-owned and reused, but nothing of the
// call stays in them once it returns — no workload's plaintext Input, no
// chunk's epoch key or key schedule — after RunJob, after a lone RunSealed
// and after a 3-job RunSealed.
func TestJobScratchClearedAfterEveryCall(t *testing.T) {
	r := newSealedRig(t)
	w := accel.GenConv(16, 16, 4, 1)
	sealed := r.seal(t, w.Input)
	check := func(after string) {
		t.Helper()
		if cap(r.ws) == 0 || cap(r.chunks) == 0 || cap(r.plan) == 0 {
			t.Fatalf("after %s: the call ran through no System-owned scratch", after)
		}
		for i, v := range r.ws[:cap(r.ws)] {
			if v.Input != nil || v.Kernel != nil {
				t.Errorf("after %s: workload scratch %d still holds a job", after, i)
			}
		}
		for i, c := range r.chunks[:cap(r.chunks)] {
			if c.key != nil || c.block != nil || c.baseIV != nil || c.jobs != nil {
				t.Errorf("after %s: chunk scratch %d still holds its epoch", after, i)
			}
		}
		for i, j := range r.plan[:cap(r.plan)] {
			if j != (batchJob{}) {
				t.Errorf("after %s: planned job %d is still set", after, i)
			}
		}
	}
	if _, err := r.RunJob(w); err != nil {
		t.Fatal(err)
	}
	check("RunJob")
	var one [1]BatchResult
	if err := r.RunSealed("Conv", []SealedJob{{w.Params, sealed}}, one[:]); err != nil || one[0].Err != nil {
		t.Fatal(err, one[0].Err)
	}
	check("a lone RunSealed")
	three := make([]BatchResult, 3)
	if err := r.RunSealed("Conv", []SealedJob{{w.Params, sealed}, {w.Params, sealed}, {w.Params, sealed}}, three); err != nil {
		t.Fatal(err)
	}
	check("a 3-job RunSealed")
}

// readForger is a shell that, once armed, answers the host's DMA reads
// with plain in order, and faults on read number fault (counting from
// zero; -1 never), so the host's seal buffer holds plaintext when a read
// or the seal after it fails.
type readForger struct {
	shell.PassThrough
	armed       bool
	plain       []byte
	fault, read int
	served      int
}

func (f *readForger) OnResponse(r []byte) []byte {
	if !f.armed || channel.MsgType(r) != channel.MsgMemData {
		return r
	}
	f.read++
	if f.read-1 == f.fault {
		return channel.EncodeError("injected DMA fault")
	}
	data, err := channel.DecodeMemData(r)
	if err != nil {
		return r
	}
	frame, out := channel.AppendMemData(nil, uint32(len(data)))
	f.served += copy(out, f.plain[f.served:])
	return frame
}

// TestFailedReadOutputPoolsNoPlaintext: a sealed output's buffer holds the
// job's plaintext between read-back and seal, so a DMA read that faults
// after its first burst and a seal that fails both zero the buffer before
// it goes back to bufpool: no buffer the pool hands out afterwards holds a
// window of that plaintext.
func TestFailedReadOutputPoolsNoPlaintext(t *testing.T) {
	forger := &readForger{}
	r := newSealedRig(t, func(c *SystemConfig) { c.Interceptor = forger })
	aead, err := r.User.DataAEAD()
	if err != nil {
		t.Fatal(err)
	}
	block, err := aes.NewCipher(r.key)
	if err != nil {
		t.Fatal(err)
	}
	shortTag, err := cipher.NewGCMWithTagSize(block, 12)
	if err != nil {
		t.Fatal(err)
	}
	plain := make([]byte, channel.DMABurst+4096)
	mrand.New(mrand.NewSource(1)).Read(plain)
	ix := indexPlaintexts(plain)
	for _, c := range []struct {
		name  string
		n     int
		fault int
		seal  cipher.AEAD
	}{
		{"DMA read fault on the second burst", len(plain), 1, aead},
		{"seal failure", 4096, -1, shortTag},
	} {
		forger.armed, forger.plain, forger.fault, forger.read, forger.served = true, plain, c.fault, 0, 0
		r.jobMu.Lock()
		out, err := r.readOutput(0, c.n, false, nil, [16]byte{}, c.seal)
		r.jobMu.Unlock()
		forger.armed = false
		switch {
		case err == nil || out != nil:
			t.Fatalf("%s: readOutput = %d bytes, %v; want a failure", c.name, len(out), err)
		case forger.served == 0:
			t.Fatalf("%s: no plaintext was read back, so the case proves nothing", c.name)
		}
		for i := 0; i < 4; i++ {
			if b := bufpool.Get(c.n + cryptoutil.SealOverhead); ix.leaks(b[:cap(b)]) {
				t.Errorf("%s: bufpool handed out a buffer holding the job's plaintext", c.name)
			}
		}
	}
}
