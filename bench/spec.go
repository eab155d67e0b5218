package main

// The benchmark's contract: every workload and every metric by name. The
// root BENCHMARK.json is generated from these tables (-manifest) and the
// smoke test checks the two agree.

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec names one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen; per-layer metrics have none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// Workload names are fixed: later issues cite them.
const (
	wSmall     = "small-cluster"
	wBulk      = "bulk-cluster"
	wBatch     = "batch-cluster"
	wFed       = "fed-tenants"
	wOpen      = "open-overload"
	wBootCold  = "boot-cold-u200"
	wBootFleet = "boot-fleet-warm"
)

var workloadSpecs = []workloadSpec{
	{wSmall, "closed loop, 2 KiB sealed Conv jobs over the cluster gateway: per-job fixed cost (rpc framing, gateway, dispatch, register frames) dominates"},
	{wBulk, "same deployment, 1 MiB jobs: data path (GCM, CTR, base64/JSON of MiB bodies, DMA copies, kernel) dominates; control-path changes must not show"},
	{wBatch, "same deployment, RunBatch of 64 x 2 KiB: one sealed register frame per chunk, pipelined DMA; shows a single-job gain that costs the batched path"},
	{wFed, "64 outstanding calls on a FederationSession over 3 shards x 2 boards: ring routing, spill-over and lazy sibling hand-off"},
	{wOpen, "open loop from due time on the fleet gateway, 2 ms modelled service: rate ladder then a batch-class flood with a critical probe; the only queue"},
	{wBootCold, "sequential cold SecureBoot of a U200-profile system under DefaultTiming, no caches: Figure 9, bitstream-bound"},
	{wBootFleet, "8-board x 2-RP fleet boot plus 4 sibling adds with shared boot caches: manipulation hits, one quote, handshake-bound"},
}

// End-to-end metrics: emitted by every workload, never zero. A "call" is
// one client operation (a job, a 64-job batch, or one boot) and a "job" is
// one verified unit of work (a job, or one booted partition).
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"call_p50_us", "us", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"allocs_per_job", "count", "lower", 0.02},
	{"alloc_kb_per_job", "KiB", "lower", 0.03},
}

// Per-layer metrics, <package>.<name>. A workload that does not cross a
// layer reports 0 for it.
var perLayerSpecs = []metricSpec{
	// client: the bench's own side of a call; tails live here.
	{"client.seal_open_us", "us", "lower", 0},
	{"client.call_p99_us", "us", "lower", 0},
	{"client.call_max_us", "us", "lower", 0},
	{"client.gen_lag_p99_us", "us", "lower", 0},
	{"client.fail_share", "share", "lower", 0},
	// rpc
	{"rpc.echo_rtt_us", "us", "lower", 0},
	{"rpc.wire_bytes_per_job", "B", "lower", 0},
	{"rpc.calls_per_job", "count", "lower", 0},
	{"rpc.allocs_per_call", "count", "lower", 0},
	{"rpc.server_handle_mean_us", "us", "lower", 0},
	// remote
	{"remote.gateway_self_us", "us", "lower", 0},
	{"remote.admit_ns", "ns", "lower", 0},
	{"remote.attest_ms", "ms", "lower", 0},
	{"remote.shed_total", "count", "lower", 0},
	{"remote.rate_limited_total", "count", "lower", 0},
	{"remote.redials_total", "count", "lower", 0},
	// federation
	{"federation.route_ns", "ns", "lower", 0},
	{"federation.submit_self_us", "us", "lower", 0},
	{"federation.spill_share", "share", "lower", 0},
	{"federation.home_hit_share", "share", "higher", 0},
	{"federation.handoffs", "count", "lower", 0},
	{"federation.net_modelled_ms_per_job", "ms", "lower", 0},
	// sched
	{"sched.dispatch_self_us", "us", "lower", 0},
	{"sched.wait_mean_us", "us", "lower", 0},
	{"sched.service_mean_us", "us", "lower", 0},
	{"sched.submitted", "count", "higher", 0},
	{"sched.completed", "count", "higher", 0},
	{"sched.overloaded", "count", "lower", 0},
	{"sched.deadline_shed", "count", "lower", 0},
	{"sched.redispatched", "count", "lower", 0},
	{"sched.rp_balance", "share", "higher", 0},
	{"sched.queue_depth_end", "count", "lower", 0},
	{"sched.critical_p50_us", "us", "lower", 0},
	{"sched.standard_p99_us", "us", "lower", 0},
	{"sched.max_rate_in_limit", "1/s", "higher", 0},
	{"sched.overload_goodput_per_s", "1/s", "higher", 0},
	// core
	{"core.job_sealed_us", "us", "lower", 0},
	{"core.job_self_us", "us", "lower", 0},
	{"core.batch64_us", "us", "lower", 0},
	{"core.ctr_us", "us", "lower", 0},
	{"core.enclave_seal_open_us", "us", "lower", 0},
	{"core.session_exchanges_per_kjob", "count", "lower", 0},
	{"core.rekeys", "count", "lower", 0},
	{"core.develop_cl_ms", "ms", "lower", 0},
	{"core.boot_real_ms", "ms", "lower", 0},
	{"core.boot_modelled_s", "s", "lower", 0},
	// smapp (enclave side, incl. userapp), channel, shell, accel
	{"smapp.secure_reg_us", "us", "lower", 0},
	{"smapp.secure_reg_batch64_us", "us", "lower", 0},
	{"smapp.rekey_us", "us", "lower", 0},
	{"channel.seal_open_ns", "ns", "lower", 0},
	{"channel.seal_open_allocs", "count", "lower", 0},
	{"channel.batch_ns_per_txn", "ns", "lower", 0},
	{"channel.batch_allocs", "count", "lower", 0},
	{"shell.direct_reg_us", "us", "lower", 0},
	{"shell.dma_mb_per_s", "MB/s", "higher", 0},
	{"shell.transactions_per_job", "count", "lower", 0},
	{"shell.bytes_per_job", "B", "lower", 0},
	{"accel.compute_us", "us", "lower", 0},
	// boot: Figure 3 steps, real (wall) and modelled (virtual clock)
	{"userapp.local_attest_real_ms", "ms", "lower", 0},
	{"userapp.local_attest_modelled_ms", "ms", "lower", 0},
	{"smapp.fetch_device_key_real_ms", "ms", "lower", 0},
	{"smapp.fetch_device_key_modelled_ms", "ms", "lower", 0},
	{"smapp.deploy_cl_real_ms", "ms", "lower", 0},
	{"smapp.deploy_cl_modelled_ms", "ms", "lower", 0},
	{"smapp.attest_cl_real_ms", "ms", "lower", 0},
	{"smapp.attest_cl_modelled_ms", "ms", "lower", 0},
	{"userapp.ra_response_real_ms", "ms", "lower", 0},
	{"userapp.ra_response_modelled_ms", "ms", "lower", 0},
	{"client.verify_quote_real_ms", "ms", "lower", 0},
	{"client.verify_quote_modelled_ms", "ms", "lower", 0},
	{"client.provision_key_real_ms", "ms", "lower", 0},
	{"client.provision_key_modelled_ms", "ms", "lower", 0},
	{"bitman.manipulate_real_ms", "ms", "lower", 0},
	{"bitstream.digest_real_ms", "ms", "lower", 0},
	{"bitstream.encrypt_real_ms", "ms", "lower", 0},
	{"shell.load_cl_real_ms", "ms", "lower", 0},
	{"smapp.manip_total", "count", "lower", 0},
	{"smapp.manip_hits", "count", "higher", 0},
	{"smapp.enc_total", "count", "lower", 0},
	{"smapp.enc_hits", "count", "higher", 0},
	{"smapp.quote_generated", "count", "lower", 0},
	{"smapp.quote_reused", "count", "higher", 0},
	{"fleet.spawn_ms", "ms", "lower", 0},
	{"fleet.boot_parallel_ms", "ms", "lower", 0},
	{"fleet.adopt_us", "us", "lower", 0},
	{"fleet.add_sibling_ms", "ms", "lower", 0},
	{"model.constant_s", "s", "lower", 0},
	{"model.tool_slowdown", "x", "lower", 0},
	{"model.enclave_slowdown", "x", "lower", 0},
	{"model.fig9_err_pct", "%", "lower", 0},
	// host and trace
	{"host.cpu_us_per_job", "us", "lower", 0},
	{"host.gc_cycles", "count", "lower", 0},
	{"host.gc_pause_ms", "ms", "lower", 0},
	{"host.heap_peak_mb", "MB", "lower", 0},
	{"host.goroutines_end", "count", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
	{"trace.unattributed_share", "share", "lower", 0},
}

// manifest is the shape of the root BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadSpec   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 10

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
	}
	for _, s := range endToEndSpecs {
		b := s.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{s.Name, s.Unit, s.Better, &b})
	}
	for _, s := range perLayerSpecs {
		m.PerLayer = append(m.PerLayer, manifestMetric{s.Name, s.Unit, s.Better, nil})
	}
	return m
}

func unitOf(specs []metricSpec, name string) string {
	for _, s := range specs {
		if s.Name == name {
			return s.Unit
		}
	}
	return ""
}
