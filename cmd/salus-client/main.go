// Command salus-client is the data owner's side of a networked deployment:
// it loads the expectations published for a gateway (salus-server -exp),
// attests every device listed there with one cascaded-attestation exchange
// over TCP, provisions one shared data key, and fans -jobs sealed jobs out
// concurrently over a single multiplexed connection — polling the per-device
// stats on that same connection while the jobs run. Every subcommand opens
// the one owner session (remote.Dial), and the flow is the same against one
// board, an elastic fleet, or a federated region: the expectations cover
// the root shard, which is the whole pool on a one-shard gateway, and -key
// names the session the ring routes by.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"salus"
	"salus/internal/client"
	"salus/internal/fpga"
	"salus/internal/remote"
	"salus/internal/sched"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("salus-client: ")
	if len(os.Args) > 1 && os.Args[1] == "fleet" {
		runFleet(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "top" {
		runTop(os.Args[2:])
		return
	}
	instAddr := flag.String("inst", "127.0.0.1:7002", "gateway address")
	expPath := flag.String("exp", "salus-expectations.json", "expectations file from salus-server")
	kernel := flag.String("kernel", "Conv", "kernel the gateway deployed")
	jobs := flag.Int("jobs", 8, "number of sealed jobs")
	batch := flag.Bool("batch", false, "submit all -jobs in one batched RPC frame instead of one call per job")
	key := flag.String("key", "", "session key a federation front tier routes by (with -tenant); other gateways ignore it")
	tenant := flag.String("tenant", "", "tenant name for gateway rate limiting")
	class := flag.String("class", "", "priority class (batch, standard, critical)")
	deadline := flag.Duration("deadline", 0, "per-job deadline; expired jobs are shed, never run late (0 disables)")
	flag.Parse()

	exps, err := loadExpectations(*expPath)
	if err != nil {
		log.Fatal(err)
	}
	var qos *remote.QoS
	if *tenant != "" || *class != "" || *deadline > 0 {
		c, ok := sched.ClassByName(*class)
		if !ok {
			log.Fatalf("unknown class %q (want batch, standard, or critical)", *class)
		}
		qos = &remote.QoS{Tenant: *tenant, Class: c, Deadline: *deadline}
	}
	runJobs(exps, *instAddr, *key, *kernel, *jobs, *batch, qos)
}

// loadExpectations reads the owner's expectations: a JSON array with one
// entry per device to attest, or the legacy single object (a pool of one).
func loadExpectations(path string) ([]client.Expectations, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var exps []client.Expectations
	switch trimmed := bytes.TrimSpace(raw); {
	case bytes.HasPrefix(trimmed, []byte("[")):
		err = json.Unmarshal(raw, &exps)
	case bytes.HasPrefix(trimmed, []byte("{")):
		exps = make([]client.Expectations, 1)
		err = json.Unmarshal(raw, &exps[0])
	default:
		err = fmt.Errorf("want a JSON array of device expectations or a single object")
	}
	if err == nil && len(exps) == 0 {
		err = fmt.Errorf("no device expectations")
	}
	if err != nil {
		return nil, fmt.Errorf("expectations file %s: %w", path, err)
	}
	return exps, nil
}

// runFleet is the elastic-operations subcommand: scale the pool up or
// down, decommission a named board, and inspect membership — all
// without re-attesting. Growth is safe without an owner round because new
// boards receive the data key only through the sibling enclave hand-off;
// the printed stats are the owner's membership audit.
func runFleet(args []string) {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	instAddr := fs.String("inst", "127.0.0.1:7002", "fleet gateway address")
	expPath := fs.String("exp", "salus-expectations.json", "expectations file from salus-server")
	scale := fs.Int("scale", 0, "grow (>0) or shrink (<0) the fleet by this many boards")
	remove := fs.String("remove", "", "DNA of a board to decommission")
	timeout := fs.Duration("timeout", 30*time.Second, "with -remove: bound on waiting for in-flight jobs")
	fs.Parse(args)

	exps, err := loadExpectations(*expPath)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := remote.Dial(*instAddr, exps)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	if *scale != 0 {
		resp, err := sess.Scale(*scale)
		if err != nil {
			log.Fatalf("scale: %v", err)
		}
		for _, dna := range resp.Added {
			fmt.Println("added:  ", dna)
		}
		for _, dna := range resp.Removed {
			fmt.Println("removed:", dna)
		}
	}
	if *remove != "" {
		if _, err := sess.Remove(fpga.DNA(*remove), *timeout); err != nil {
			log.Fatalf("remove: %v", err)
		}
		fmt.Println("decommissioned:", *remove)
	}

	stats, err := sess.DeviceStats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet membership (%d boards, %d partitions):\n", boardCount(stats), len(stats))
	for _, ds := range stats {
		state := "healthy"
		switch {
		case ds.Permanent:
			state = "WRITTEN OFF"
		case ds.Quarantined:
			state = "QUARANTINED"
		}
		fmt.Printf("  %-16s %-10s completed=%-4d failed=%-3d retried=%-3d queued=%-3d %s%s\n",
			rpLabel(ds), ds.Kernel, ds.Completed, ds.Failed, ds.Retried, ds.Queued, state, tenantTag(ds))
	}
}

// runJobs attests the listed devices and drives sealed jobs plus live stats
// over one shared connection — concurrently one call per job, or (with
// -batch) as a single batched RPC frame riding the batched secure data
// path.
func runJobs(exps []client.Expectations, addr, key, kernel string, jobs int, batch bool, qos *remote.QoS) {
	fmt.Printf("expecting %d devices (first: user enclave %s, SM enclave %s, CL digest %x..., device %s)\n",
		len(exps), exps[0].UserEnclave, exps[0].SMEnclave, exps[0].Digest[:8], exps[0].DNA)

	sess, err := remote.Dial(addr, exps)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err != nil {
		log.Fatalf("platform NOT trusted: %v", err)
	}
	fmt.Printf("all %d devices attested in one exchange; shared data key provisioned\n", len(exps))
	if qos != nil {
		sess.SetQoS(*qos)
		fmt.Printf("qos: tenant=%q class=%s deadline=%v\n", qos.Tenant, qos.Class, qos.Deadline)
	}

	if batch {
		runBatch(sess, key, kernel, jobs)
		return
	}

	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	done := make(chan struct{})
	for i := 0; i < jobs; i++ {
		w, ok := salus.TestWorkload(kernel, int64(i))
		if !ok {
			log.Fatalf("unknown kernel %q", kernel)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := sess.RunJob(key, kernel, w.Params, w.Input); err != nil {
				errs <- fmt.Errorf("job %d: %w", i, err)
			}
		}(i)
	}
	// While the jobs are in flight, poll stats on the SAME connection —
	// possible only because the RPC client multiplexes concurrent calls.
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			if stats, err := sess.DeviceStats(); err == nil {
				var queued int64
				for _, ds := range stats {
					queued += ds.Queued
				}
				fmt.Printf("  in flight: %d jobs queued across %d devices\n", queued, len(stats))
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(done)
	close(errs)
	failed := 0
	for err := range errs {
		failed++
		log.Println(err)
	}

	stats, err := sess.DeviceStats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ran %d sealed %s jobs (%d failed) across the pool:\n", jobs, kernel, failed)
	for _, ds := range stats {
		state := "healthy"
		if ds.Quarantined {
			state = "QUARANTINED"
		}
		fmt.Printf("  %-16s %-10s completed=%-4d failed=%-3d retried=%-3d %s%s\n",
			rpLabel(ds), ds.Kernel, ds.Completed, ds.Failed, ds.Retried, state, tenantTag(ds))
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runBatch submits every job in one RunBatch call: one RPC frame up, one
// down, and on the device one sealed register program per chunk instead of
// one secure round trip per job.
func runBatch(sess *remote.Session, key, kernel string, jobs int) {
	inputs := make([]remote.BatchInput, jobs)
	var inBytes int
	for i := range inputs {
		w, ok := salus.TestWorkload(kernel, int64(i))
		if !ok {
			log.Fatalf("unknown kernel %q", kernel)
		}
		inputs[i] = remote.BatchInput{Params: w.Params, Input: w.Input}
		inBytes += len(w.Input)
	}
	start := time.Now()
	results, placement, err := sess.RunBatch(key, kernel, inputs)
	if err != nil {
		log.Fatalf("batch: %v", err)
	}
	elapsed := time.Since(start)
	failed := 0
	var outBytes int
	for i, r := range results {
		if r.Err != nil {
			failed++
			log.Printf("job %d: %v", i, r.Err)
			continue
		}
		outBytes += len(r.Output)
	}
	mbps := float64(inBytes) / (1 << 20) / elapsed.Seconds()
	fmt.Printf("batched %d sealed %s jobs in one frame: %d bytes in, %d bytes out, %v (%.1f MB/s), %d failed\n",
		jobs, kernel, inBytes, outBytes, elapsed.Round(time.Millisecond), mbps, failed)
	if placement.Shard != "" {
		fmt.Printf("  placed on shard %s (spilled=%v)\n", placement.Shard, placement.Spilled)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
