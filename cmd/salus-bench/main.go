// Command salus-bench regenerates the paper's runtime evaluation (§6.4):
// Figure 10 (speedup of the five workloads on the Salus FPGA TEE over an
// SGX CPU TEE) and Table 6 (the slowdown each TEE adds over its own plain
// baseline), from the calibrated architectural model. With -measure it also
// runs the real Go kernels with real AES-CTR traffic encryption on this
// machine for functional ground truth.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"salus"
	"salus/internal/accel"
	"salus/internal/core"
	"salus/internal/fpga"
	"salus/internal/perfmodel"
	"salus/internal/sched"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("salus-bench: ")
	if len(os.Args) > 1 && os.Args[1] == "federation" {
		benchFederation(os.Args[2:])
		return
	}
	measure := flag.Bool("measure", false, "also run the real kernels with real traffic encryption")
	schedDevs := flag.Int("sched", 0, "also benchmark the job scheduler over N simulated devices (0 = skip)")
	schedJobs := flag.Int("jobs", 64, "jobs per scheduler benchmark run")
	flag.Parse()

	if *schedDevs > 0 {
		benchScheduler(*schedDevs, *schedJobs)
		return
	}

	c := salus.DefaultPerfConstants()

	fmt.Println("Table 6 — slowdown of CPU TEE and FPGA TEE (paper rows: Conv, Rendering, FaceDetect)")
	fmt.Println()
	fmt.Println(salus.FormatTable6(salus.Table6(c)))

	fmt.Println("Figure 10 — performance of realistic workloads on a securely booted FPGA TEE")
	fmt.Println()
	fmt.Println(salus.FormatFigure10(salus.Figure10(c)))
	fmt.Println("(paper envelope: 1.17x – 15.64x)")

	if !*measure {
		return
	}
	fmt.Println()
	fmt.Println("Measured on this machine (real Go kernels, paper-scale workloads, real AES-CTR):")
	fmt.Printf("%-14s %14s %14s %9s\n", "Application", "plain", "with crypto", "overhead")
	for _, k := range accel.Kernels() {
		w, ok := accel.PaperWorkload(k.Name(), 1)
		if !ok {
			continue
		}
		plain, err := perfmodel.MeasureCPU(k, w, false)
		if err != nil {
			log.Fatal(err)
		}
		tee, err := perfmodel.MeasureCPU(k, w, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %14v %14v %8.2fx\n", k.Name(), plain.Round(10e3), tee.Round(10e3),
			float64(tee)/float64(plain))
	}
}

// benchScheduler compares a serial RunJob loop on one device against the
// scheduler fanning the same jobs across n devices, all with session reuse.
func benchScheduler(n, jobs int) {
	// Model the ~2 ms the host spends idle-blocked on a physical board per
	// job; overlapping that wait across boards is the scheduler's win.
	timing := salus.FastTiming()
	timing.RealJobLatency = 2 * time.Millisecond
	newPool := func(size int) []*core.System {
		systems := make([]*core.System, size)
		for i := range systems {
			sys, err := core.NewSystem(core.SystemConfig{
				Kernel: accel.Conv{},
				Seed:   int64(700 + i),
				DNA:    fpga.DNA(fmt.Sprintf("BENCH-%02d", i)),
				Timing: timing,
			})
			if err != nil {
				log.Fatal(err)
			}
			systems[i] = sys
		}
		if _, err := sched.BootShared(systems); err != nil {
			log.Fatal(err)
		}
		return systems
	}
	workload := func(i int) accel.Workload { return accel.GenConv(16, 16, 4, int64(i)) }
	std := sched.SubmitOptions{Class: sched.ClassStandard}

	// Serial baseline: one device, one job at a time.
	serial := newPool(1)[0]
	start := time.Now()
	for i := 0; i < jobs; i++ {
		if _, err := serial.RunJob(workload(i)); err != nil {
			log.Fatal(err)
		}
	}
	serialRate := float64(jobs) / time.Since(start).Seconds()

	// Scheduler: the same jobs over n devices.
	s := sched.New(sched.Config{})
	for _, sys := range newPool(n) {
		if err := s.Register(sys); err != nil {
			log.Fatal(err)
		}
	}
	start = time.Now()
	futs := make([]*sched.Future, jobs)
	for i := range futs {
		futs[i] = s.Submit([]sched.Job{sched.PlainJob(workload(i))}, std)[0]
	}
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			log.Fatalf("job %d: %v", i, err)
		}
	}
	schedRate := float64(jobs) / time.Since(start).Seconds()
	s.Close()

	// Batched path: the same jobs submitted as one batch, so each device
	// seals one register program per chunk and pays the fabric wait once
	// per chunk instead of once per job.
	sb := sched.New(sched.Config{})
	for _, sys := range newPool(n) {
		if err := sb.Register(sys); err != nil {
			log.Fatal(err)
		}
	}
	batch := make([]sched.Job, jobs)
	for i := range batch {
		batch[i] = sched.PlainJob(workload(i))
	}
	start = time.Now()
	for i, f := range sb.Submit(batch, std) {
		if _, err := f.Wait(); err != nil {
			log.Fatalf("batched job %d: %v", i, err)
		}
	}
	batchRate := float64(jobs) / time.Since(start).Seconds()
	sb.Close()

	fmt.Printf("Scheduler throughput — %d jobs, Conv 16x16x4, session reuse enabled\n\n", jobs)
	fmt.Printf("%-24s %12s\n", "configuration", "jobs/sec")
	fmt.Printf("%-24s %12.1f\n", "serial, 1 device", serialRate)
	noun := "devices"
	if n == 1 {
		noun = "device"
	}
	fmt.Printf("%-24s %12.1f   (%.2fx)\n", fmt.Sprintf("scheduler, %d %s", n, noun), schedRate, schedRate/serialRate)
	fmt.Printf("%-24s %12.1f   (%.2fx)\n", fmt.Sprintf("batched, %d %s", n, noun), batchRate, batchRate/serialRate)
}
