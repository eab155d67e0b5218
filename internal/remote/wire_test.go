package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"salus/internal/rpc"
)

// The append* helpers below spell the job messages' byte layout out by hand,
// independently of rpc.Encoder: the tests compare what the gateway's own
// encoders put on the wire against them, seed the fuzzer with them, and
// forge frames with them.

func appendString(b []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint16(b, uint16(len(s))), s...)
}

func appendSection(b, section []byte) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(section))), section...)
}

func appendRouting(b []byte, deadlineMillis int64, kernel, tenant, class, key string) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(deadlineMillis))
	return appendString(appendString(appendString(appendString(b, kernel), tenant), class), key)
}

func appendJob(b []byte, params [4]uint64, sealedInput []byte) []byte {
	for _, p := range params {
		b = binary.BigEndian.AppendUint64(b, p)
	}
	return appendSection(b, sealedInput)
}

func appendPlacement(b []byte, spilled bool, shard string) []byte {
	if spilled {
		return appendString(append(b, 1), shard)
	}
	return appendString(append(b, 0), shard)
}

func appendJobRequest(b []byte, r JobRequest) []byte {
	return appendJob(appendRouting(b, r.DeadlineMillis, r.Kernel, r.Tenant, r.Class, r.Key), r.Params, r.SealedInput)
}

func appendJobResponse(b []byte, r JobResponse) []byte {
	return appendSection(appendPlacement(b, r.Spilled, r.Shard), r.SealedOutput)
}

func appendBatchRequest(b []byte, r BatchRequest) []byte {
	b = appendRouting(b, r.DeadlineMillis, r.Kernel, r.Tenant, r.Class, r.Key)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Jobs)))
	for _, j := range r.Jobs {
		b = appendJob(b, j.Params, j.SealedInput)
	}
	return b
}

func appendBatchResponse(b []byte, r BatchResponse) []byte {
	b = appendPlacement(b, r.Spilled, r.Shard)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Results)))
	for _, res := range r.Results {
		b = appendSection(appendString(b, res.Error), res.SealedOutput)
	}
	return b
}

// wireEchoServer is a loopback rpc server that decodes and re-encodes the
// four job messages and does nothing else, plus a client to it.
func wireEchoServer(t testing.TB) *rpc.Client {
	t.Helper()
	srv := rpc.NewServer()
	srv.Handle("JobRequest", rpc.Typed(func(in JobRequest) (JobRequest, error) { return in, nil }))
	srv.Handle("JobResponse", rpc.Typed(func(in JobResponse) (JobResponse, error) { return in, nil }))
	srv.Handle("BatchRequest", rpc.Typed(func(in BatchRequest) (BatchRequest, error) { return in, nil }))
	srv.Handle("BatchResponse", rpc.Typed(func(in BatchResponse) (BatchResponse, error) { return in, nil }))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// viaJSON is what the old wire made of a message: json.Marshal, then
// json.Unmarshal into a fresh value.
func viaJSON[T any](t *testing.T, in T) T {
	t.Helper()
	doc, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if err := json.Unmarshal(doc, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// canon folds nil and empty slices together, everywhere inside v. JSON told
// them apart only where a field had no omitempty and no consumer ever did;
// the binary wire has one encoding for both.
func canon(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		canon(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			canon(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.Zero(v.Type()))
		}
		for i := 0; i < v.Len(); i++ {
			canon(v.Index(i))
		}
	}
}

// sameMeaning is the differential property: through the binary wire (twice:
// up to the echo server and back) a message means what it meant through
// JSON, and its encoding is byte for byte what the hand-written layout says.
func sameMeaning[T any](t *testing.T, c *rpc.Client, method string, in T, layout []byte) {
	t.Helper()
	var got T
	if err := c.Call(method, in, &got); err != nil {
		t.Fatalf("%s %+v: %v", method, in, err)
	}
	want := viaJSON(t, in)
	canon(reflect.ValueOf(&got))
	canon(reflect.ValueOf(&want))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: binary wire decoded\n%+v\nJSON decoded\n%+v", method, got, want)
	}
	// Decoding the independent layout must give the same value again.
	back := reflect.New(reflect.TypeOf(in))
	if err := back.Interface().(rpc.WireDecoder).DecodeWire(layout); err != nil {
		t.Fatalf("%s: decoding the hand-written layout: %v", method, err)
	}
	canon(back)
	if !reflect.DeepEqual(back.Elem().Interface(), want) {
		t.Fatalf("%s: hand-written layout decoded\n%+v\nJSON decoded\n%+v", method, back.Elem().Interface(), want)
	}
}

func TestJobWireMatchesJSON(t *testing.T) {
	c := wireEchoServer(t)
	rng := rand.New(rand.NewSource(16))
	blob := func() []byte {
		switch rng.Intn(5) {
		case 0:
			return nil
		case 1:
			return []byte{} // empty, not nil
		}
		b := make([]byte, 1+rng.Intn(3000))
		rng.Read(b)
		return b
	}
	word := func() string {
		if rng.Intn(3) == 0 {
			return "" // empty QoS / routing field
		}
		b := make([]byte, 1+rng.Intn(40))
		for i := range b {
			b[i] = byte(' ' + rng.Intn(95))
		}
		return string(b)
	}
	deadline := func() int64 { return []int64{0, 1, 1500, 1 << 40}[rng.Intn(4)] }
	params := func() [4]uint64 {
		return [4]uint64{rng.Uint64(), uint64(rng.Intn(8)), 0, ^uint64(0)}
	}
	for i := 0; i < 300; i++ {
		jr := JobRequest{Kernel: word(), Params: params(), SealedInput: blob(), Tenant: word(), Class: word(), DeadlineMillis: deadline(), Key: word()}
		sameMeaning(t, c, "JobRequest", jr, appendJobRequest(nil, jr))

		jp := JobResponse{SealedOutput: blob(), Shard: word(), Spilled: rng.Intn(2) == 0}
		sameMeaning(t, c, "JobResponse", jp, appendJobResponse(nil, jp))

		br := BatchRequest{Kernel: word(), Tenant: word(), Class: word(), DeadlineMillis: deadline(), Key: word()}
		bp := BatchResponse{Shard: word(), Spilled: rng.Intn(2) == 0}
		for n := rng.Intn(5) * rng.Intn(20); n > 0; n-- {
			br.Jobs = append(br.Jobs, BatchJob{Params: params(), SealedInput: blob()})
			res := BatchJobResult{SealedOutput: blob()}
			if rng.Intn(3) == 0 {
				res = BatchJobResult{Error: "core: batch job rejected: " + word()} // a per-job failure
			}
			bp.Results = append(bp.Results, res)
		}
		sameMeaning(t, c, "BatchRequest", br, appendBatchRequest(nil, br))
		sameMeaning(t, c, "BatchResponse", bp, appendBatchResponse(nil, bp))
	}
}

// FuzzJobWireDecode throws arbitrary bytes at the four decoders. They must
// never panic, never hand out a byte that was not in the body, and never
// allocate beyond the body's own size plus one element header per job the
// body really had room for.
func FuzzJobWireDecode(f *testing.F) {
	sealed := bytes.Repeat([]byte{0xC5}, 60)
	jr := appendJobRequest(nil, JobRequest{Kernel: "Conv", Params: [4]uint64{4, 4, 1}, SealedInput: sealed, Tenant: "t", Class: "critical", DeadlineMillis: 1500, Key: "k"})
	br := appendBatchRequest(nil, BatchRequest{Kernel: "Conv", Jobs: []BatchJob{{Params: [4]uint64{1, 2, 3, 4}, SealedInput: sealed}, {}}, Key: "k"})
	f.Add(jr)
	f.Add(appendJobResponse(nil, JobResponse{SealedOutput: sealed, Shard: "gw1", Spilled: true}))
	f.Add(br)
	f.Add(appendBatchResponse(nil, BatchResponse{Results: []BatchJobResult{{SealedOutput: sealed}, {Error: "oversize"}}, Shard: "gw0"}))
	f.Add(jr[:len(jr)-1])                                                      // section one byte short
	f.Add(append(bytes.Clone(jr), 0))                                          // one byte after the payload
	f.Add(binary.BigEndian.AppendUint32(bytes.Clone(jr[:len(jr)-64]), 1<<31))  // section length past the body end
	f.Add(binary.BigEndian.AppendUint32(bytes.Clone(br[:8+2+4+2+2+3]), 1<<30)) // job count the body cannot hold
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		inside := func(section []byte) {
			if len(section) > 0 && !aliases(body, section) {
				t.Fatal("decoded section does not alias the body")
			}
		}
		var (
			jreq  JobRequest
			jresp JobResponse
			breq  BatchRequest
			bresp BatchResponse
		)
		if jreq.DecodeWire(body) == nil {
			inside(jreq.SealedInput)
		}
		if jresp.DecodeWire(body) == nil {
			inside(jresp.SealedOutput)
		}
		if breq.DecodeWire(body) == nil {
			if len(breq.Jobs)*minJobWire > len(body) {
				t.Fatalf("%d jobs from %d bytes", len(breq.Jobs), len(body))
			}
			for _, j := range breq.Jobs {
				inside(j.SealedInput)
			}
			// A body that decodes is exactly what its value encodes to.
			if again := appendBatchRequest(nil, breq); !bytes.Equal(again, body) {
				t.Fatal("BatchRequest decode is not the inverse of its layout")
			}
		}
		if bresp.DecodeWire(body) == nil {
			if len(bresp.Results)*minResultWire > len(body) {
				t.Fatalf("%d results from %d bytes", len(bresp.Results), len(body))
			}
			for _, r := range bresp.Results {
				inside(r.SealedOutput)
			}
		}
	})
}

// aliases reports whether section lies wholly inside body's memory.
func aliases(body, section []byte) bool {
	b0 := uintptr(unsafe.Pointer(unsafe.SliceData(body)))
	s0 := uintptr(unsafe.Pointer(unsafe.SliceData(section)))
	return s0 >= b0 && s0+uintptr(len(section)) <= b0+uintptr(len(body))
}

// TestJobWireDecodeBoundedAlloc pins the decoders' allocation bound with a
// count that lies: a batch header claiming 2^30 jobs over a few bytes must be
// refused before anything is sized by it.
func TestJobWireDecodeBoundedAlloc(t *testing.T) {
	lying := appendRouting(nil, 0, "Conv", "", "", "")
	lying = binary.BigEndian.AppendUint32(lying, 1<<30)
	lying = append(lying, make([]byte, 200)...)
	allocs := testing.AllocsPerRun(10, func() {
		var r BatchRequest
		if r.DecodeWire(lying) == nil {
			t.Fatal("decoded a batch its body cannot hold")
		}
		var p BatchResponse
		if p.DecodeWire(lying) == nil && len(p.Results) > len(lying)/minResultWire {
			t.Fatal("decoded more results than the body can hold")
		}
	})
	if allocs > 4 {
		t.Errorf("refusing a lying count cost %.0f allocations", allocs)
	}
}

// TestJobWireAllocBudget keeps the job path's framing cost in tier-1, client
// and server sides together, so a regression (a sealed payload passing
// through encoding/json or base64 again, a copy per hop) fails here without
// the benchmark. Pinned at the measured 6 allocations for a 2 KiB round
// trip (11 before rpc recycled its handler goroutines, reply channels and
// decoded params; budget 20 before that): the boxed request and the
// escaping response on the client, its response frame, the decoded kernel
// and class names, and the boxed result. For a 1 MiB one it is the
// client's response frame alone: 256 KiB once rounded to whole pages. The
// server reads the request into a pooled buffer of its size class, so a
// warm pool allocates nothing for it (1,301–1,327 KiB a call and a budget
// of 1,400 when that frame was an exact-size allocation; 2,560 KiB before).
// A garbage collection can still cost a pooled class a refill of up to
// 2 MiB, so the pin is the quietest of eight windows of ten calls.
func TestJobWireAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	srv := rpc.NewServer()
	small, bulk := make([]byte, 812), make([]byte, 258092)
	srv.Handle("small", rpc.Typed(func(JobRequest) (JobResponse, error) { return JobResponse{SealedOutput: small}, nil }))
	srv.Handle("bulk", rpc.Typed(func(JobRequest) (JobResponse, error) { return JobResponse{SealedOutput: bulk}, nil }))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	call := func(method string, sealedIn []byte, wantOut int) {
		req := JobRequest{Kernel: "Conv", Params: [4]uint64{16, 16, 4}, SealedInput: sealedIn, Class: "standard"}
		var resp JobResponse
		if err := c.Call(method, req, &resp); err != nil || len(resp.SealedOutput) != wantOut {
			t.Fatalf("%s: %v, %d output bytes", method, err, len(resp.SealedOutput))
		}
	}
	in2k := make([]byte, 2076)
	allocs := testing.AllocsPerRun(200, func() { call("small", in2k, len(small)) })
	t.Logf("2 KiB job round trip: %.1f allocations", allocs)
	if allocs > 6 {
		t.Errorf("2 KiB job round trip: %.1f allocations, budget 6", allocs)
	}

	in1m := make([]byte, 1<<20+28)
	for i := 0; i < 10; i++ {
		call("bulk", in1m, len(bulk)) // warm the pools
	}
	const calls, windows = 10, 8
	per := uint64(math.MaxUint64)
	for w := 0; w < windows; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			call("bulk", in1m, len(bulk))
		}
		runtime.ReadMemStats(&after)
		per = min(per, (after.TotalAlloc-before.TotalAlloc)/calls)
	}
	t.Logf("1 MiB job round trip: %d KiB per call", per>>10)
	if per > 300<<10 {
		t.Errorf("1 MiB job round trip allocates %d KiB per call, budget 300", per>>10)
	}
}
