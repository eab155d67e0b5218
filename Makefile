GO ?= go

# Packages whose statement coverage is gated in CI (the observability layer,
# the subsystems its health signals come from, the job engine, the federation
# tier, the runtime channel, the Table 1 baselines, the kernel models, the
# SM application's secure boot, and the serving transport: the rpc framing
# and the buffer pool it recycles frames through), and the floor they must
# clear.
COVER_PKGS = salus/internal/metrics salus/internal/sched salus/internal/fleet salus/internal/place salus/internal/remote \
	salus/internal/core salus/internal/federation salus/internal/channel salus/internal/compare salus/internal/accel \
	salus/internal/smapp salus/internal/rpc salus/internal/bufpool
COVER_FLOOR = 75

.PHONY: all build test vet lint race tier1 fuzz-smoke ci cover cover-check fmt-check loc ab bench bench-smoke bench-sched-gate bench-overload bench-metrics bench-federation bench-multitenant bench-json clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Domain-specific invariants go vet cannot see: constant-time auth
# compares, no blocking under a held mutex, gauge pairing, errors.Is
# discipline, the sealed host<->CL boundary, and test-sleep hygiene.
# Suppressions require an in-source reason (see cmd/salus-vet).
lint:
	$(GO) run ./cmd/salus-vet ./...

# Full race-detector sweep: vet first so obvious mistakes fail fast.
race:
	$(GO) vet ./... && $(GO) test -race ./...

# The roadmap's tier-1 gate, plus the concurrency-sensitive packages
# (scheduler, core job path, shell, accelerator, SM logic, fleet, the
# gateway wire, the buffer pool its frames and sealed outputs recycle
# through, and the secure boot's concurrent digest and decode checks)
# under the race detector. The frame- and output-aliasing tests of the
# gateway wire, of the job path's borrowed DMA frames and of the SM logic's
# reused DMA read frame only bite with the race build's poisoning. The nested bench module
# is vetted too: it is the only caller of remote's compatibility wrappers,
# and ./... never reaches it. The rpc client's read-role hand-over, its
# intern table's shared slots, the scheduler's waiter claim and a
# partition's phase read against its reclaim are races one run proves
# little about, so their tests run twenty times more under the detector.
tier1:
	$(GO) build ./... && $(GO) test ./...
	$(GO) vet -C bench ./...
	$(GO) test -race ./internal/sched ./internal/core ./internal/shell ./internal/accel ./internal/smlogic ./internal/fleet ./internal/bufpool ./internal/rpc ./internal/remote ./internal/federation ./internal/bitstream ./internal/smapp ./internal/fpga
	$(GO) test -race -count=20 -run '^(TestReadRoleChangesHands|TestReadRoleSkipsCallerStillWriting|TestIdleClientHoldsNoGoroutine|TestReplyRoutedBeforeCallerLeads|TestInternSharedSlotUnderConcurrency)$$' ./internal/rpc
	$(GO) test -race -count=20 -run '^(TestWaitRunsLoneJobOnIdlePartition|TestClaimNeverJumpsQueuedEntry|TestVectorEntryIsClaimedWhenAlone|TestClaimedRunHoldsOffWorkerExit|TestRemoveRPWaitsForWaiterRun|TestWaiterRunFaultRedispatches|TestDoneNeverClaims)$$' ./internal/sched
	$(GO) test -race -count=20 -run '^(TestPhaseReadsRaceReclaimAndShare)$$' ./internal/core

# Five seconds of real fuzzing per wire decoder, for the bitstream decoder
# (whose images borrow their input), for the kernels' output bounds (which
# size every job's device-memory slot), for the kernels' AppendCompute into a
# reused stale buffer (the fabric's output buffer) and for the packed Conv
# kernel against its plain reference loop; without this the corpora only
# ever run as seed unit tests. (-fuzz takes one target and one package per
# run.)
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFrameRoundTrip$$' -fuzztime 5s ./internal/rpc
	$(GO) test -run '^$$' -fuzz '^FuzzJobWireDecode$$' -fuzztime 5s ./internal/remote
	$(GO) test -run '^$$' -fuzz '^FuzzDecoders$$' -fuzztime 5s ./internal/channel
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 5s ./internal/bitstream
	$(GO) test -run '^$$' -fuzz '^FuzzKernelOutputCap$$' -fuzztime 5s ./internal/accel
	$(GO) test -run '^$$' -fuzz '^FuzzKernelAppendCompute$$' -fuzztime 5s ./internal/accel
	$(GO) test -run '^$$' -fuzz '^FuzzConvMatchesReference$$' -fuzztime 5s ./internal/accel

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Non-test Go lines per package directory and in total, excluding the nested
# bench/ module: the figures size claims in CHANGES.md are quoted from.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec wc -l {} + | awk ' \
		$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'

# Per-package statement-coverage table for the whole module.
cover:
	@$(GO) test -cover ./... | awk '/coverage:/ { \
		pkg = ($$1 == "ok" || $$1 == "FAIL") ? $$2 : $$1; \
		cov = "-"; for (i = 1; i <= NF; i++) if ($$i ~ /%/) cov = $$i; \
		printf "%-40s %s\n", pkg, cov }'

# Enforce the coverage floor on the gated packages.
cover-check:
	@$(GO) test -coverprofile=/dev/null -cover $(COVER_PKGS) | awk -v floor=$(COVER_FLOOR) ' \
		/coverage:/ { \
			for (i = 1; i <= NF; i++) if ($$i ~ /%/) { sub(/%.*/, "", $$i); cov = $$i } \
			printf "%-30s %s%%\n", $$2, cov; \
			if (cov + 0 < floor) { bad = 1 } \
		} \
		END { if (bad) { print "coverage below " floor "% floor"; exit 1 } }'

# The one-stop verification entry point: formatting, vet, the tier-1 gate,
# the fuzz smoke, the nested bench module (its own go.mod, so ./... above never reaches it,
# yet it imports salus/internal/...), the coverage floor on the
# observability-critical packages, a full-repo race sweep, and the metrics
# hot-path budget.
ci: fmt-check vet lint
	$(GO) build ./... && $(GO) test ./...
	$(MAKE) fuzz-smoke
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...
	$(MAKE) cover-check
	$(GO) test -race ./...
	$(MAKE) bench-metrics
	$(MAKE) bench-sched-gate
	$(MAKE) bench-overload
	$(MAKE) bench-federation
	$(MAKE) bench-multitenant

bench:
	$(GO) test -bench=. -benchmem ./...

# The BENCHMARK.json suite (seven workloads, end-to-end and per-layer
# metrics) as one machine-readable document; see bench/README.md.
bench-json:
	$(GO) run -C bench . -seed 1 -out $(CURDIR)/BENCH.json

# Paired runs of one benchmark workload, or of every one in turn with
# WORKLOAD=all, the committed tree at BASE against the working tree,
# alternating which runs first (see scripts/ab.sh):
#   make ab BASE=<rev> WORKLOAD=<name|all> [PAIRS=10] [SEED=1]
PAIRS ?= 10
SEED ?= 1
ab:
	bash scripts/ab.sh $(BASE) $(WORKLOAD) $(PAIRS) $(SEED)

# One iteration of every benchmark: fast enough for CI, and keeps the
# bench suite from silently rotting.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Runs a gate test with its -v output filtered to the lines worth reading,
# and exits with go test's status (the filter alone would hide a failure).
# $(1) is the filter pattern, the rest go test's arguments.
gate = @out=$$(SALUS_BENCH_SMOKE=1 $(GO) test -v $(2) 2>&1); status=$$?; \
	printf '%s\n' "$$out" | grep -E '$(1)'; exit $$status

# The batched data path's acceptance gate: one sealed 64-job Submit on a
# single-device pool must clear 5x the 6.5 MB/s unbatched single-device
# baseline, with an allocation-free seal/open hot path (batched and single
# frames). The serving tier's throughput is bench/'s (see bench/README.md).
bench-sched-gate:
	$(call gate,MB/s|ok|FAIL|PASS,-run TestBatchedThroughputGate .)

# The overload, federation and multi-tenant gates below still pipe into
# grep, so `make ci` does not fail on them: their wall-clock bounds are not
# yet stable on small hosts (ROADMAP open item 2). bench-metrics and
# bench-sched-gate use the gate helper above and do fail it.

# Overload survival gate: at >= 10x-capacity offered ClassBatch load the
# pool must keep goodput >= 80% of calibrated capacity and hold the
# critical-class p99 within 20% of uncontended plus one head-of-line
# residual (see TestOverloadGate).
bench-overload:
	SALUS_BENCH_SMOKE=1 $(GO) test -run 'TestOverloadGate$$' -v . | grep -E 'capacity|overload|p99|ok|FAIL|PASS'

# Federation gate: 3 federated 2-device gateways must serve 100k+ concurrent
# client sessions at >= 2.5x a single gateway's aggregate goodput, and the
# routing ring must converge minimally on shard join/leave (join moves keys
# only onto the new shard; leave restores prior ownership exactly).
bench-federation:
	SALUS_BENCH_SMOKE=1 $(GO) test -run 'TestFederationGate$$' -v . | grep -E 'goodput|moved|hand-off|ok|FAIL|PASS'

# Multi-tenant spatial-sharing gate: on identical hardware (2 boards), 4
# RPs per board must serve a 16-tenant job mix at >= 2x the aggregate
# goodput of board-granular scheduling, with every partition taking work
# (see TestMultiTenantGate).
bench-multitenant:
	SALUS_BENCH_SMOKE=1 $(GO) test -run 'TestMultiTenantGate$$' -v . | grep -E 'goodput|partition|ok|FAIL|PASS'

# Metrics hot-path smoke gate: one enabled counter+histogram record must
# stay under ~100ns/op with zero allocations (see TestHotPathBudget).
bench-metrics:
	$(call gate,ns/op|ok|FAIL|PASS,-run TestHotPathBudget ./internal/metrics)

clean:
	$(GO) clean ./...
