package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"salus/internal/metrics"
	"salus/internal/remote"
	"salus/internal/sched"
)

// runTop is the live fleet-health subcommand: it polls per-device stats
// and aggregate metrics snapshots and renders a compact health board —
// queue depth, boot-cache hit rates, quarantine state, and job-latency
// quantiles. -inst accepts a comma-separated gateway list: counters sum,
// histograms merge bucket-for-bucket (metrics.MergeSnapshots), and device
// rows concatenate, so one board covers a whole fleet of gateways, each a
// pool or a federated region serving the same Stats/Metrics methods.
// -iterations bounds the loop (0 = run until interrupted), which is what
// the e2e test uses.
func runTop(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	instAddr := fs.String("inst", "127.0.0.1:7002", "cluster / fleet / federation gateway address(es), comma-separated")
	expPath := fs.String("exp", "salus-expectations.json", "expectations file from salus-server")
	interval := fs.Duration("interval", time.Second, "refresh interval")
	iterations := fs.Int("iterations", 0, "number of refreshes before exiting (0 = forever)")
	fs.Parse(args)

	exps, err := loadExpectations(*expPath)
	if err != nil {
		log.Fatal(err)
	}
	var addrs []string
	for _, a := range strings.Split(*instAddr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		log.Fatal("top: no gateway addresses")
	}
	sessions := make([]*remote.Session, 0, len(addrs))
	for _, a := range addrs {
		sess, err := remote.Dial(a, exps)
		if err != nil {
			log.Fatal(err)
		}
		defer sess.Close()
		sessions = append(sessions, sess)
	}

	for i := 0; *iterations <= 0 || i < *iterations; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		var stats []sched.DeviceStats
		snaps := make([]metrics.Snapshot, 0, len(sessions))
		for j, sess := range sessions {
			s, err := sess.DeviceStats()
			if err != nil {
				log.Fatalf("stats from %s: %v", addrs[j], err)
			}
			stats = append(stats, s...)
			m, err := sess.Metrics()
			if err != nil {
				log.Fatalf("metrics from %s: %v", addrs[j], err)
			}
			snaps = append(snaps, m)
		}
		if len(addrs) > 1 {
			fmt.Printf("salus top — aggregating %d gateways (%s)\n", len(addrs), strings.Join(addrs, ", "))
		}
		fmt.Print(renderTop(stats, metrics.MergeSnapshots(snaps...)))
	}
}

// renderTop formats one refresh of the health board.
func renderTop(stats []sched.DeviceStats, snap metrics.Snapshot) string {
	var b strings.Builder
	now := time.Now().Format(time.TimeOnly)

	var queued int64
	quarantined, permanent := 0, 0
	for _, ds := range stats {
		queued += ds.Queued
		if ds.Permanent {
			permanent++
		} else if ds.Quarantined {
			quarantined++
		}
	}

	fmt.Fprintf(&b, "salus top — %s — %d boards / %d RPs\n", now, boardCount(stats), len(stats))
	fmt.Fprintf(&b, "  queue depth   %d queued (gauge %d)\n",
		queued, snap.Gauges["salus_sched_queue_depth"])
	fmt.Fprintf(&b, "  health        %d quarantined, %d written off (%d quarantine events, %d readmissions)\n",
		quarantined, permanent,
		snap.Counters["salus_sched_quarantine_total"], snap.Counters["salus_sched_readmit_total"])
	fmt.Fprintf(&b, "  jobs          %d submitted, %d completed, %d failed, %d re-dispatched\n",
		snap.Counters["salus_sched_submitted_total"], snap.Counters["salus_sched_completed_total"],
		snap.Counters["salus_sched_failed_total"], snap.Counters["salus_sched_redispatched_total"])

	if h, ok := snap.Histograms["salus_sched_job_seconds"]; ok && h.Count > 0 {
		fmt.Fprintf(&b, "  job latency   p50 %v  p95 %v  p99 %v  (n=%d, mean %v)\n",
			h.P50, h.P95, h.P99, h.Count, h.Mean())
	} else {
		fmt.Fprintf(&b, "  job latency   no jobs recorded yet\n")
	}

	fmt.Fprintf(&b, "  boot caches   manipulation %s, encryption %s, quote reuse %s\n",
		hitRate(snap.Counters["salus_smapp_manip_hits_total"], snap.Counters["salus_smapp_manip_total"]),
		hitRate(snap.Counters["salus_smapp_enc_hits_total"], snap.Counters["salus_smapp_enc_total"]),
		hitRate(snap.Counters["salus_smapp_quote_reused_total"], snap.Counters["salus_smapp_quote_generated_total"]))
	fmt.Fprintf(&b, "  sessions      %d key exchanges, %d rekeys, %d gateway redials\n",
		snap.Counters["salus_session_exchanges_total"], snap.Counters["salus_session_rekeys_total"],
		snap.Counters["salus_remote_redials_total"])

	for _, ds := range stats {
		state := "healthy"
		switch {
		case ds.Permanent:
			state = "WRITTEN OFF"
		case ds.Quarantined:
			state = "QUARANTINED"
		}
		fmt.Fprintf(&b, "  %-16s %-10s queued=%-3d completed=%-4d failed=%-3d %s%s\n",
			rpLabel(ds), ds.Kernel, ds.Queued, ds.Completed, ds.Failed, state, tenantTag(ds))
	}
	return b.String()
}

// rpLabel names one scheduler row: the board DNA alone for a classic
// single-partition device, "DNA/rpN" under spatial sharing.
func rpLabel(ds sched.DeviceStats) string {
	if ds.RP == 0 && ds.Tenant == "" {
		return string(ds.DNA)
	}
	return fmt.Sprintf("%s/rp%d", ds.DNA, ds.RP)
}

// tenantTag renders a dedicated partition's tenant, or nothing.
func tenantTag(ds sched.DeviceStats) string {
	if ds.Tenant == "" {
		return ""
	}
	return fmt.Sprintf(" tenant=%s", ds.Tenant)
}

// boardCount counts distinct DNAs across the per-RP stat rows.
func boardCount(stats []sched.DeviceStats) int {
	seen := make(map[string]bool, len(stats))
	for _, ds := range stats {
		seen[string(ds.DNA)] = true
	}
	return len(seen)
}

// hitRate renders "hits/total (pct)" for a cache's hit and cold counters.
func hitRate(hits, cold uint64) string {
	total := hits + cold
	if total == 0 {
		return "0/0"
	}
	return fmt.Sprintf("%d/%d (%.0f%%)", hits, total, 100*float64(hits)/float64(total))
}
