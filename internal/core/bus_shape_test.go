package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"salus/internal/accel"
	"salus/internal/channel"
	"salus/internal/cryptoutil"
	"salus/internal/shell"
)

var updateBusShape = flag.Bool("update-bus-shape", false, "rewrite testdata/bus_shape.golden from the current tree")

// shapeTap records only the (type, length) of every frame the shell
// carries, never its bytes. The pipelined batch path writes the next
// chunk's inputs on a second goroutine while the first reads results, so
// the DMA-write stream (MemWrite requests and their empty acks) is kept
// apart from everything else: each stream is sequential on its own, and
// only their interleaving varies run to run.
type shapeTap struct {
	shell.PassThrough
	mu         sync.Mutex
	dma, other []string
}

func (t *shapeTap) add(dir string, f []byte) {
	line := fmt.Sprintf("%s %#02x %d", dir, channel.MsgType(f), len(f))
	t.mu.Lock()
	defer t.mu.Unlock()
	isAck := dir == "resp" && channel.MsgType(f) == channel.MsgMemData && len(f) == 5
	if (dir == "req" && channel.MsgType(f) == channel.MsgMemWrite) || isAck {
		t.dma = append(t.dma, line)
	} else {
		t.other = append(t.other, line)
	}
}

func (t *shapeTap) OnLoad(d []byte) []byte     { t.add("load", d); return d }
func (t *shapeTap) OnRequest(r []byte) []byte  { t.add("req", r); return r }
func (t *shapeTap) OnResponse(r []byte) []byte { t.add("resp", r); return r }

// phase renders and resets the frames recorded since the last call.
func (t *shapeTap) phase(name string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: dma\n", name)
	for _, l := range t.dma {
		b.WriteString(l + "\n")
	}
	fmt.Fprintf(&b, "# %s: other\n", name)
	for _, l := range t.other {
		b.WriteString(l + "\n")
	}
	t.dma, t.other = nil, nil
	return b.String()
}

// TestBusShapeIsGolden pins what the shell sees of boot, one 1 MiB sealed
// Conv job and one 64 × 2 KiB sealed batch: the type and length of every
// frame, in order. Copy elimination on the host or the CL must leave the
// bus traffic exactly as it was. Regenerate (only for a deliberate
// protocol change) with go test ./internal/core -run TestBusShapeIsGolden
// -update-bus-shape.
func TestBusShapeIsGolden(t *testing.T) {
	tap := &shapeTap{}
	s := newTestSystem(t, func(c *SystemConfig) { c.Interceptor = tap })
	if _, err := s.SecureBoot(); err != nil {
		t.Fatal(err)
	}
	got := tap.phase("boot")

	key, err := s.User.DataKey()
	if err != nil {
		t.Fatal(err)
	}
	seal := func(in []byte) []byte {
		sealed, err := cryptoutil.Seal(key, in, []byte("job-input"))
		if err != nil {
			t.Fatal(err)
		}
		return sealed
	}
	bulk := accel.GenConv(256, 256, 8, 1)
	if _, err := s.RunJobSealed("Conv", bulk.Params, seal(bulk.Input)); err != nil {
		t.Fatal(err)
	}
	got += tap.phase("sealed job 256x256x8")

	jobs := make([]SealedJob, 64)
	for i := range jobs {
		w := accel.GenConv(16, 16, 4, int64(i))
		jobs[i] = SealedJob{Params: w.Params, Input: seal(w.Input)}
	}
	res, err := s.RunJobSealedBatch("Conv", jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("batch job %d: %v", i, r.Err)
		}
	}
	got += tap.phase("sealed batch 64x16x16x4")

	path := filepath.Join("testdata", "bus_shape.golden")
	if *updateBusShape {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("bus shape differs from %s at line %d: got %q, want %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("bus shape differs from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
