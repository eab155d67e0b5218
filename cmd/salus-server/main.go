// Command salus-server hosts a complete networked Salus deployment on
// localhost: the manufacturer's key-distribution RPC service and one
// gateway (boot / provision / jobs) in front of -devices independently
// manufactured FPGAs and a job scheduler, with each board's SM enclave
// fetching its device key over TCP — the deployment topology of §6.1. One
// board is a pool of one. The data owner attests every device, provisions
// one shared data key, and sealed jobs fan out to the least-loaded board.
// The pool is elastic at runtime: Cluster.Scale / Cluster.Remove RPCs grow
// and shrink it between -min-devices and -max-devices, and with
// -auto-replace the fleet manager swaps out permanently quarantined boards
// on its own.
//
// With -shards N it hosts a federated region instead: N shards of -devices
// boards each, every shard behind its own scheduler, routing sessions on a
// consistent-hash ring (tenant + session key), spilling them to the
// least-loaded sibling when their home shard saturates, and brokering the
// enclave-to-enclave data-key hand-off. The data owner attests ONLY the
// root shard; every other shard is keyed lazily the first time the ring
// routes it work, and Scale/Remove act on the root shard. The region shares
// one in-process manufacturer and boot caches, so -mfr, -rps-per-device and
// the elastic flags do not apply.
//
// Either way one remote.Serve call builds the gateway: a lone fleet is a
// region of one shard, and the wire dialect is the same.
//
// It writes the data owner's expectations (measurements, digest H, DNA,
// root) to -exp as a JSON array, one entry per device the owner attests,
// so cmd/salus-client can verify the platform from "outside".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"salus"
	"salus/internal/client"
	"salus/internal/core"
	"salus/internal/federation"
	"salus/internal/fleet"
	"salus/internal/fpga"
	"salus/internal/manufacturer"
	"salus/internal/metrics"
	"salus/internal/remote"
	"salus/internal/sched"
)

// ceiling renders the -max-devices bound for the banner.
func ceiling(max int) string {
	if max <= 0 {
		return "∞"
	}
	return fmt.Sprintf("%d", max)
}

// parseTenantWeights parses "-tenant-weights" ('name=weight' pairs,
// comma-separated) into a sched fair-share map; empty input means nil.
func parseTenantWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-tenant-weights: %q is not name=weight", pair)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("-tenant-weights: %q needs a positive integer weight", pair)
		}
		weights[name] = w
	}
	return weights, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("salus-server: ")
	kernel := flag.String("kernel", "Conv", "benchmark kernel to deploy")
	mfrAddr := flag.String("mfr", "127.0.0.1:7001", "manufacturer service address")
	instAddr := flag.String("inst", "127.0.0.1:7002", "gateway address")
	expPath := flag.String("exp", "salus-expectations.json", "where to write the data owner's expectations")
	devices := flag.Int("devices", 1, "number of FPGA devices behind the gateway (per shard with -shards)")
	rpsPerDevice := flag.Int("rps-per-device", 1, "reconfigurable partitions carved per board, each an independent serving unit")
	tenantWeights := flag.String("tenant-weights", "", "per-tenant fair-share weights, e.g. 'gold=3,bronze=1' (unlisted tenants weigh 1)")
	queue := flag.Int("queue", sched.DefaultQueueDepth, "per-device job queue depth")
	retries := flag.Int("retries", sched.DefaultMaxRetries, "re-dispatch attempts for device faults (negative disables)")
	quarAfter := flag.Int("quarantine-after", sched.DefaultQuarantineAfter, "consecutive faults before a device is quarantined")
	quarBase := flag.Duration("quarantine", sched.DefaultQuarantineBase, "initial quarantine window (doubles per relapse)")
	permAfter := flag.Int("permanent-after", 3, "failed probes at max backoff before a board is written off (0 disables)")
	minDevices := flag.Int("min-devices", 1, "floor the fleet may never shrink below")
	maxDevices := flag.Int("max-devices", 0, "ceiling the fleet may never grow beyond (0 = unbounded)")
	autoReplace := flag.Duration("auto-replace", 0, "scan interval for replacing written-off boards (0 disables)")
	autoscale := flag.Duration("autoscale", 0, "queue-pressure sampling interval for autoscaling (0 disables)")
	autoscaleHigh := flag.Float64("autoscale-high", 4, "mean queued jobs per device that triggers scale-up")
	autoscaleLow := flag.Float64("autoscale-low", 0.5, "mean queued jobs per device that triggers scale-down")
	tenantRate := flag.Float64("tenant-rate", 0, "sustained jobs/sec each tenant may submit (0 disables)")
	tenantBurst := flag.Float64("tenant-burst", 0, "per-tenant burst depth (0 defaults to -tenant-rate)")
	maxP99 := flag.Duration("max-p99", 0, "shed non-critical work when live p99 job latency exceeds this (0 disables)")
	metricsEvery := flag.Duration("metrics-interval", 0, "dump the process metrics registry and ring stats every interval (0 disables)")
	shards := flag.Int("shards", 0, "front a federated region of this many shards, -devices boards each (0 serves one pool)")
	vnodes := flag.Int("vnodes", federation.DefaultVirtualNodes, "with -shards: virtual nodes per shard on the routing ring")
	spillHigh := flag.Float64("spill-high", federation.DefaultSpillHighWater, "with -shards: mean queued jobs per device at which a shard spills")
	flag.Parse()

	k, ok := salus.KernelByName(*kernel)
	if !ok {
		log.Fatalf("unknown kernel %q", *kernel)
	}
	if *devices < 1 {
		log.Fatalf("-devices must be >= 1, got %d", *devices)
	}
	if *rpsPerDevice < 1 {
		log.Fatalf("-rps-per-device must be >= 1, got %d", *rpsPerDevice)
	}
	if *shards < 0 {
		log.Fatalf("-shards must be >= 0, got %d", *shards)
	}
	weights, err := parseTenantWeights(*tenantWeights)
	if err != nil {
		log.Fatal(err)
	}
	schedCfg := sched.Config{
		QueueDepth:      *queue,
		MaxRetries:      *retries,
		QuarantineAfter: *quarAfter,
		QuarantineBase:  *quarBase,
		PermanentAfter:  *permAfter,
		TenantWeights:   weights,
	}
	var gwOpts []remote.GatewayOption
	if *tenantRate > 0 || *maxP99 > 0 {
		adm := remote.NewAdmission(remote.AdmissionConfig{
			TenantRate:  *tenantRate,
			TenantBurst: *tenantBurst,
			MaxP99:      *maxP99,
		})
		gwOpts = append(gwOpts, remote.WithAdmission(adm))
		fmt.Printf("admission control:   tenant-rate=%g/s burst=%g max-p99=%v\n", *tenantRate, *tenantBurst, *maxP99)
	}

	// fed is what the gateway fronts: a federated region, or one fleet as a
	// one-shard region. attested are the systems the data owner verifies:
	// the root shard's, which for one fleet is the whole pool.
	var (
		fed      *federation.Federation
		attested []*core.System
	)
	if *shards > 0 {
		d, err := federation.BuildLocal(federation.LocalSpec{
			Shards:          *shards,
			DevicesPerShard: *devices,
			Kernel:          k,
			Scheduler:       schedCfg,
			Federation: federation.Config{
				VirtualNodes:   *vnodes,
				SpillHighWater: *spillHigh,
			},
			RemoteHandshake: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fed, attested = d.Fed, d.RootSystems
		fmt.Printf("region:              %d shards x %d devices, root %s, %d vnodes/shard, spill at %g queued/device\n",
			*shards, *devices, fed.Root(), *vnodes, *spillHigh)
		fmt.Println("the owner attests the root shard only; siblings are keyed by enclave hand-off")
	} else {
		mfr, err := manufacturer.New()
		if err != nil {
			log.Fatal(err)
		}
		mfrSrv, mfrBound, err := remote.ServeManufacturer(mfr, *mfrAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer mfrSrv.Close()
		fmt.Println("manufacturer service:", mfrBound)

		kc, err := remote.DialManufacturer(mfrBound)
		if err != nil {
			log.Fatal(err)
		}
		defer kc.Close()

		mgr, err := fleet.New(fleet.Config{
			Kernel:       k,
			DNAPrefix:    "POOL",
			Manufacturer: mfr,
			KeyService:   kc,
			Timing:       salus.FastTiming(),
			RPsPerDevice: *rpsPerDevice,
			Scheduler:    schedCfg,
			MinDevices:   *minDevices,
			MaxDevices:   *maxDevices,
			OnReplace: func(old, new fpga.DNA) {
				log.Printf("auto-replaced written-off board %s with %s", old, new)
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		if attested, err = mgr.SpawnN(*devices); err != nil {
			log.Fatal(err)
		}
		fed = federation.Single(mgr)
		if *autoReplace > 0 {
			mgr.StartAutoReplace(*autoReplace)
			fmt.Println("auto-replace every: ", *autoReplace)
		}
		if *autoscale > 0 {
			mgr.StartAutoscale(fleet.AutoscaleConfig{
				Interval:  *autoscale,
				HighWater: *autoscaleHigh,
				LowWater:  *autoscaleLow,
			})
			fmt.Printf("autoscale every:     %v (high=%g low=%g per device)\n", *autoscale, *autoscaleHigh, *autoscaleLow)
		}
		fmt.Printf("deployed %s CL on %d boards x %d RPs = %d partitions (digest %x...), elastic %d..%s boards\n",
			*kernel, *devices, *rpsPerDevice, len(attested), attested[0].Package.Digest[:8], *minDevices, ceiling(*maxDevices))
	}
	defer fed.Close()
	srv, bound, err := remote.Serve(fed, attested, *instAddr, gwOpts...)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("gateway:            ", bound)
	if len(weights) > 0 {
		fmt.Printf("tenant fair share:   %s\n", *tenantWeights)
	}

	exps := make([]client.Expectations, len(attested))
	for i, sys := range attested {
		exps[i] = sys.Expectations()
	}
	expJSON, err := json.MarshalIndent(exps, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*expPath, expJSON, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("expectations written:", *expPath)

	stopMetrics := make(chan struct{})
	if *metricsEvery > 0 {
		fmt.Println("metrics dump every:  ", *metricsEvery)
		go func() {
			t := time.NewTicker(*metricsEvery)
			defer t.Stop()
			for {
				select {
				case <-stopMetrics:
					return
				case <-t.C:
					fmt.Printf("--- metrics %s ---\n%s", time.Now().Format(time.TimeOnly), metrics.Default().Snapshot())
					printRing(fed.Stats())
				}
			}
		}()
	}

	fmt.Println("waiting for a data owner — Ctrl-C to stop")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	close(stopMetrics)
	fmt.Println("\nshutting down")
}

// printRing renders the gateway's routing and shard snapshot.
func printRing(st federation.Stats) {
	fmt.Printf("--- ring --- epoch=%d routed=%d spilled=%d handoffs=%d\n", st.Epoch, st.Routed, st.Spilled, st.Handoffs)
	for _, sh := range st.Shards {
		fmt.Printf("  %-6s devices=%d queued=%d pressure=%.2f keyed=%v root=%v\n",
			sh.ID, sh.Devices, sh.Queued, sh.Pressure, sh.Keyed, sh.Root)
	}
}
