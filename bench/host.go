package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// Warm-up sizes cover the largest resident set a run of each kind reaches:
// ~410 MB untraced (boot-fleet-warm), ~1.1 GB traced (bulk-cluster).
const (
	warmUntraced = 512 << 20
	warmTraced   = 3 << 29
)

// warmMemory touches n bytes of heap once, before anything is timed. In
// the sandbox a page the process has not touched yet costs 20-85 us to
// fault in (the host backs guest memory lazily and takes freed pages
// back), against ~0.3 us on an ordinary machine; a run whose heap grows
// during the timed phase pays that per page and reads up to 5x slower.
// The buffer is collected at once and its spans stay in Go's heap, so the
// run's own allocations reuse the pages it faulted in.
func warmMemory(n int) {
	b := make([]byte, n)
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	runtime.KeepAlive(b)
	b = nil
	runtime.GC()
}

// hostProbe measures what a pass cost the host process: CPU time, GC work
// and the peak of live heap objects, sampled every 20 ms.
type hostProbe struct {
	cpu  time.Duration
	mem  runtime.MemStats
	peak uint64
	stop chan struct{}
	done chan struct{}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startHost() *hostProbe {
	h := &hostProbe{cpu: processCPU(), stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&h.mem)
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				metrics.Read(sample)
				if v := sample[0].Value.Uint64(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// finish stops the sampler and writes the host.* metrics for a pass that
// verified jobs jobs.
func (h *hostProbe) finish(jobs int, vals map[string]float64) {
	close(h.stop)
	<-h.done
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if jobs > 0 {
		vals["host.cpu_us_per_job"] = usOf(processCPU()-h.cpu) / float64(jobs)
	}
	vals["host.gc_cycles"] = float64(after.NumGC - h.mem.NumGC)
	vals["host.gc_pause_ms"] = float64(after.PauseTotalNs-h.mem.PauseTotalNs) / 1e6
	vals["host.heap_peak_mb"] = float64(h.peak) / (1 << 20)
	vals["host.goroutines_end"] = float64(runtime.NumGoroutine())
}
