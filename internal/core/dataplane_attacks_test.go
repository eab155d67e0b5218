package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"salus/internal/accel"
	"salus/internal/cryptoutil"
	"salus/internal/shell"
)

// dataPlaneTampers are the shell's attacks on a job's DMA traffic: a byte
// of the input's ciphertext or tag flipped in its MsgMemWrite, the same of
// the output in its MsgMemData, and a dropped DMA write. nth picks the
// job whose frame is hit (see shell.TamperDMA).
func dataPlaneTampers(nth int) []struct {
	name   string
	shell  *shell.TamperDMA
	inSide bool // the fabric refuses the input: the kernel must not run
} {
	type tc = struct {
		name   string
		shell  *shell.TamperDMA
		inSide bool
	}
	var cases []tc
	for _, off := range []int{0, -accel.TagSize - 1, -accel.TagSize, -1} {
		part := "ciphertext"
		if off < 0 && off >= -accel.TagSize {
			part = "tag"
		}
		cases = append(cases,
			tc{fmt.Sprintf("MsgMemWrite %s byte %d", part, off), &shell.TamperDMA{Offset: off, Nth: nth}, true},
			tc{fmt.Sprintf("MsgMemData %s byte %d", part, off), &shell.TamperDMA{Output: true, Offset: off, Nth: nth}, false})
	}
	return append(cases, tc{"dropped DMA write", &shell.TamperDMA{Drop: true, Nth: nth}, true})
}

// TestDataPlaneTamperIsIntegrityError: every data-plane tamper fails the
// job it hits with ErrIntegrity — not a device fault, so no retry layer
// re-dispatches it — and seals nothing for the owner; a refused input
// leaves the job's output slot untouched, since the kernel never ran. In a
// 64-job batch the job hit fails alone and its siblings' outputs are
// right. (With the encryption-only data plane these tampers returned a
// wrong output with a nil error.)
func TestDataPlaneTamperIsIntegrityError(t *testing.T) {
	in := func(i int) accel.Workload { return accel.GenConv(16, 16, 4, int64(40+i)) }
	slot := alignUp(accel.SealedInLen(uint64(len(in(0).Input))))
	outLen := uint64(in(0).Kernel.OutputCap(in(0).Params, len(in(0).Input)))
	slot += alignUp(outLen + accel.TagSize)
	for _, batch := range []struct {
		name string
		jobs int
		hit  int // the job the tamper hits
	}{
		{"lone job", 1, 0},
		{"64-job batch", 64, 4},
	} {
		for _, tc := range dataPlaneTampers(batch.hit + 1) {
			t.Run(batch.name+"/"+tc.name, func(t *testing.T) {
				r := newSealedRig(t, func(c *SystemConfig) { c.Interceptor = tc.shell })
				jobs := make([]SealedJob, batch.jobs)
				for i := range jobs {
					jobs[i] = SealedJob{Params: in(i).Params, Input: r.seal(t, in(i).Input)}
				}
				res := make([]BatchResult, len(jobs))
				if err := r.RunSealed("Conv", jobs, res); err != nil {
					t.Fatalf("the call failed as a whole: %v", err)
				}
				for i, got := range res {
					if i == batch.hit {
						continue
					}
					out, err := cryptoutil.Open(r.key, got.Output, []byte("job-output"))
					want, _ := in(i).Kernel.Compute(in(i).Params, in(i).Input)
					if got.Err != nil || err != nil || !bytes.Equal(out, want) {
						t.Fatalf("job %d, not hit: %v, %v", i, got.Err, err)
					}
				}
				hit := res[batch.hit]
				switch {
				case !errors.Is(hit.Err, ErrIntegrity):
					t.Fatalf("tampered job: err = %v, want ErrIntegrity", hit.Err)
				case errors.Is(hit.Err, ErrDeviceFault):
					t.Fatalf("tampered job: %v is retryable", hit.Err)
				case hit.Output != nil:
					t.Fatalf("tampered job: %d bytes sealed for the owner", len(hit.Output))
				}
				if tc.inSide {
					// The hit job's output slot (its input slot's
					// neighbour; the first chunk starts at 0).
					at := uint64(batch.hit)*slot + alignUp(accel.SealedInLen(uint64(len(in(0).Input))))
					if dram := readDRAM(t, r.System, at, int(outLen+accel.TagSize)); !bytes.Equal(dram, make([]byte, len(dram))) {
						t.Fatal("the kernel ran on a refused input: its output slot was written")
					}
				}
			})
		}
	}
}

// TestPipelinedBatchSharesDataPlaneAEAD: in a two-chunk sealed batch the
// next chunk's inputs are sealed on their own goroutine while this chunk's
// outputs are checked on the caller's, both under the one data-plane AEAD,
// each with its own DataPlane scratch. The round trip is right, and a job
// of the second chunk whose input the shell flips fails alone. Run under
// -race (make tier1).
func TestPipelinedBatchSharesDataPlaneAEAD(t *testing.T) {
	const jobs, perEpoch, hit = 8, 4, 5 // chunks {0..3}, {4..7}
	r := newSealedRig(t, func(c *SystemConfig) {
		c.SessionRekeyEvery = perEpoch
		c.Interceptor = &shell.TamperDMA{Nth: hit + 1}
	})
	ws := make([]accel.Workload, jobs)
	sj := make([]SealedJob, jobs)
	for i := range ws {
		ws[i] = accel.GenConv(16, 16, 4, int64(80+i))
		sj[i] = SealedJob{Params: ws[i].Params, Input: r.seal(t, ws[i].Input)}
	}
	res := make([]BatchResult, jobs)
	if err := r.RunSealed("Conv", sj, res); err != nil {
		t.Fatal(err)
	}
	if got := len(r.chunks[:cap(r.chunks)]); got < 2 {
		t.Fatalf("the batch ran in %d chunk(s), want 2", got)
	}
	for i, got := range res {
		if i == hit {
			if !errors.Is(got.Err, ErrIntegrity) || got.Output != nil {
				t.Errorf("tampered job %d: %d bytes, %v; want ErrIntegrity and nothing sealed", i, len(got.Output), got.Err)
			}
			continue
		}
		out, err := cryptoutil.Open(r.key, got.Output, []byte("job-output"))
		want, _ := ws[i].Kernel.Compute(ws[i].Params, ws[i].Input)
		if got.Err != nil || err != nil || !bytes.Equal(out, want) {
			t.Errorf("job %d: %v, %v", i, got.Err, err)
		}
	}
}
