GO ?= go

# Build version stamped into caem-serve (-version, /healthz, and the
# caem_build_info metric) at link time. Defaults to git describe so a
# local build is traceable to a commit; release pipelines override:
#   make build VERSION=v1.2.3
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)

.PHONY: all build test race vet lint deadcheck chaos failover fuzz bench bench-smoke bench-gate bench-compare profile determinism resume-check docs-check obs-check api-check figures scenarios examples clean

all: build test vet

build:
	$(GO) build -ldflags "-X main.version=$(VERSION)" ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/runner/ ./internal/experiment/ ./internal/cluster/ ./internal/obs/ ./internal/store/ ./caem/ ./cmd/caem-serve/

# Cluster fault-tolerance gate: a campaign distributed to real worker
# processes, one of which is SIGKILLed mid-lease, must produce a
# byte-identical results document to the same campaign run
# single-process with no faults. The group-commit tests hold a
# settlement's store write in flight: Complete must return while it is
# held, settlements must reach the sink once each and in the order they
# were accepted, a completer past the pending bound must write the queue
# itself, and Stop must return only once the queue is written.
# Race-enabled: the lease protocol, the group commit and the settlement
# sink are exactly where concurrency bugs would hide.
chaos:
	$(GO) test -race -count=1 -v -timeout 300s -run 'TestClusterChaos|TestTransientStoreFaultHealsInvisibly|TestChaos|TestDroppedHeartbeats|TestGroupCommit' ./cmd/caem-serve/ ./internal/cluster/

# Coordinator fault-tolerance gate: the leader is SIGKILLed mid-campaign
# with two live worker processes; the hot standby must take over within
# 2x the lock TTL (restoring the journal's attempt counts and poisons,
# then re-planning every stored campaign spec against the store), fence
# the dead epoch's writes (410 + "fenced", observed via the scraped
# caem_cluster_fenced_total), and finish the campaign with a results
# document byte-identical to a fault-free run. A campaign in flight
# across a model upgrade must be re-planned under the current model, so
# its cells are stored under their current hashes. A leader that dies
# holding settlements it acknowledged but never wrote (its store write
# held by a chaos hook) loses nothing: its successor recomputes them and
# answers the fault-free results document byte for byte. Race-enabled
# for the same reason as chaos: election, journal replay, and the
# handler swap are exactly where concurrency bugs would hide.
failover:
	$(GO) test -race -count=1 -v -timeout 300s -run 'TestCoordinatorFailover|TestLeaderLock|TestCoordinatorFencing|TestJournalFailoverRoundTrip|TestRecoveryReplansUnderCurrentModel|TestLeaderKilledHoldingAcceptedSettlements' ./cmd/caem-serve/ ./internal/cluster/

vet:
	$(GO) vet ./...

# Property-based fuzzing gate. Each fuzzer's seed corpus (under
# testdata/fuzz/) already runs as deterministic subtests in plain
# `go test`; this target explores BEYOND the corpus for a bounded
# budget per fuzzer (go's fuzz engine allows one -fuzz target per
# invocation, hence eight runs):
#   FuzzSpecLoad            — adversarial JSON never panics the loader
#   FuzzGeneratorValidity   — every generated spec loads and regenerates
#                             byte-identically
#   FuzzScenarioDeterminism — generated scenarios run bit-identically
#                             across serial, parallel, and pooled+Reset
#                             execution, and traced (every arrival
#                             simulated) and untraced (dropped arrivals
#                             elided) runs give equal Results
#   FuzzStoreReopen         — after any mix of puts, re-puts, mixed
#                             batches, clean and crash reopens, the
#                             results store matches a map model of
#                             first writes
#   FuzzRecordDecode        — the store's record-line decoder fails
#                             exactly when json.Unmarshal does and
#                             otherwise returns the same Record, float
#                             bits included, and every line PutBatch
#                             writes without JSON escapes takes its
#                             direct parse
#   FuzzKeyRoundTrip        — any valid store key parses back from its
#                             rendering, which stays byte for byte the
#                             form the segment bloom filters hash
#   FuzzSegmentKeys         — the segment key-block parser returns an
#                             index or an error for any bytes, an index
#                             it returns renders back to those bytes,
#                             and the key block a roll writes parses
#                             back to exactly the roll's index
#   FuzzEngineOrder         — any mix of ordinary and first-class
#                             schedules, cancels, runs, stops and resets
#                             executes events in the (time, class,
#                             sequence) order of a sorted reference
#                             queue
# Override the budget: make fuzz FUZZTIME=2m
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSpecLoad$$' -fuzztime $(FUZZTIME) ./internal/scenario/
	$(GO) test -run '^$$' -fuzz '^FuzzGeneratorValidity$$' -fuzztime $(FUZZTIME) ./internal/scenario/gen/
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioDeterminism$$' -fuzztime $(FUZZTIME) ./caem/
	$(GO) test -run '^$$' -fuzz '^FuzzStoreReopen$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzRecordDecode$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzKeyRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentKeys$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzEngineOrder$$' -fuzztime $(FUZZTIME) ./internal/sim/

# Fast-fail lint pass: formatting, vet, the dead-code gate, and
# staticcheck when available (CI installs it; locally it is optional).
lint: deadcheck
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l flagged:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipped"; fi

# Dead-code gate (stdlib only, offline): type-checks the module, bench/
# and their standard-library dependencies from source and fails on any
# name declared under internal/ or cmd/ — package-level names and
# methods, exported or not, and exported struct fields; a command's func
# main is exempt — that no non-test file of the module or of bench/
# uses. caem/ is not scanned: its exported names are the public API. A
# use is resolved to the object it names; a method also counts as used
# when its type implements an interface that has it, and an embedded
# field when a member promoted through it is used. Names only tests use
# are allowed solely through scripts/deadcheck/allowlist.txt, one per
# line with its reason (test hooks, analytic oracles, test
# introspection, golden text); a stale entry fails too.
deadcheck:
	$(GO) run ./scripts/deadcheck -allow scripts/deadcheck/allowlist.txt . bench

# Full benchmark sweep (one iteration each; the experiment benchmarks are
# whole-figure regenerations, so more iterations take minutes).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Compile, vet and test the product-path benchmark. bench/ is its own
# module (so `go test ./...` never reaches it) and implements
# cluster.Sink and drives the coordinator, store and journal APIs, so
# this is the gate that notices an API change breaking it. Its smoke
# test builds caem-serve and runs every workload at its smallest size.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Bench regression guard: the gated benchmarks (hot-path ns per
# simulated second, the scenario engine, the Figure 9 replication grid,
# the obs instrument hot path, and the store's read-by-key query: one
# LookupCell per cell of a 384-cell grid, then FilterCells) must stay
# within BENCH_GATE_FACTOR x the committed BENCH_7.json baseline on
# ns/op and BENCH_ALLOC_FACTOR x on allocs/op. The time bound is loose by design: the baseline was
# recorded on one machine and CI runners differ and are noisy, so the
# gate catches order-of-magnitude regressions (allocation storms,
# accidental complexity), not jitter; allocation counts are nearly
# deterministic, so their bound is tighter — and the series matched by
# BENCH_EXACT_ALLOCS get no slack at all: the simulated-second hot path
# must stay at exactly its BENCH_7 count (4 allocs/op for Scheme1 and
# Scheme2, 3 for PureLEACH) and the metrics update path at exactly 0,
# proving instrumentation never leaked into the engine. The
# campaign service's results view is pinned by a tier-1 test instead
# (TestResultsViewAllocsFlat in cmd/caem-serve): its read allocates the
# same for a 4-cell and a 66-cell campaign.
# Override either factor without a code change if a runner generation
# shifts the cross-machine ratio:
#   make bench-gate BENCH_GATE_FACTOR=4
BENCH_GATE_FACTOR ?= 2.5
BENCH_ALLOC_FACTOR ?= 2.0
BENCH_EXACT_ALLOCS ?= ^(BenchmarkSimulatedSecond/|BenchmarkMetricsHotPath$$)
bench-gate:
	$(GO) run ./scripts/benchgate -baseline BENCH_7.json -factor $(BENCH_GATE_FACTOR) -allocfactor $(BENCH_ALLOC_FACTOR) -exactallocs '$(BENCH_EXACT_ALLOCS)'

# Bench comparator (CI artifact): run the gated benchmarks and print a
# benchstat-style delta table against the committed baseline. Never
# fails the build — it is the human-readable evidence attached to a PR,
# not a gate.
bench-compare:
	@mkdir -p out
	$(GO) run ./scripts/benchgate -baseline BENCH_7.json -gate=false -report out/bench-compare.txt

# Capture pprof CPU + allocation profiles for the gated benchmarks into
# out/profiles/. Inspect with `go tool pprof out/profiles/<name>.cpu`.
# (cmd/caem-bench also takes -cpuprofile/-memprofile for profiling a
# full-scale experiment regeneration instead of the reduced-scale
# benchmarks.)
profile:
	@mkdir -p out/profiles
	$(GO) test -run '^$$' -bench '^(BenchmarkSimulatedSecond|BenchmarkScenarioSecond)$$' -benchtime 1000x \
		-cpuprofile out/profiles/hotpath.cpu -memprofile out/profiles/hotpath.mem .
	$(GO) test -run '^$$' -bench '^BenchmarkFigure9_NodesAlive$$' -benchtime 3x \
		-cpuprofile out/profiles/figure9.cpu -memprofile out/profiles/figure9.mem .
	@echo "profiles written to out/profiles/"

# Golden-determinism gate: both consumers of the one replication
# executor (internal/runner's Do) must print the same bytes serially and
# in parallel — the invariant every parallel sweep in this repo
# promises. A pinned-seed replicated figure (internal/experiment) is
# regenerated serially and with 8 workers, and a caem-sim scenario
# campaign (caem.RunCampaignWith) runs at 1 and at 4 workers.
DETERMINISM_CAMPAIGN = -scenario node-churn -protocol all -seeds 2 -duration 60 -nodes 50
determinism:
	rm -rf out/determinism
	@mkdir -p out/determinism
	$(GO) run ./cmd/caem-bench -experiment figure11 -scale 0.3 -reps 3 -seed 1 -workers 1 -quiet -out out/determinism/serial
	$(GO) run ./cmd/caem-bench -experiment figure11 -scale 0.3 -reps 3 -seed 1 -workers 8 -quiet -out out/determinism/parallel
	cmp out/determinism/serial/figure11.csv out/determinism/parallel/figure11.csv
	$(GO) run ./cmd/caem-sim $(DETERMINISM_CAMPAIGN) -workers 1 > out/determinism/campaign-serial.txt
	$(GO) run ./cmd/caem-sim $(DETERMINISM_CAMPAIGN) -workers 4 > out/determinism/campaign-parallel.txt
	cmp out/determinism/campaign-serial.txt out/determinism/campaign-parallel.txt
	@echo "golden determinism: serial and parallel figure CSVs and campaign outputs are byte-identical"

# Resume-determinism gate: a campaign checkpointed mid-flight
# (-halt-after, the deterministic stand-in for a kill) and resumed from
# its results store must print byte-identical output to the same
# campaign run uninterrupted. This is the store's core promise: stored
# cells round-trip exactly and are only reused for bit-identical reruns.
RESUME_ARGS = -scenario node-churn -protocol all -seeds 2 -duration 60 -nodes 50 -workers 4
resume-check:
	rm -rf out/resume
	@mkdir -p out/resume
	$(GO) run ./cmd/caem-sim $(RESUME_ARGS) -store out/resume/full > out/resume/full.txt
	$(GO) run ./cmd/caem-sim $(RESUME_ARGS) -store out/resume/ckpt -halt-after 2
	$(GO) run ./cmd/caem-sim $(RESUME_ARGS) -store out/resume/ckpt -resume > out/resume/resumed.txt
	cmp out/resume/full.txt out/resume/resumed.txt
	@echo "resume determinism: checkpointed+resumed output is byte-identical to the uninterrupted run"

# Documentation gate: run every Example doc test, then docscheck —
# every package needs a package comment, every ```go block in
# README/ARCHITECTURE/SPEC must build against the real module, and
# every ```json block in scenarios/SPEC.md must validate through the
# real scenario loader.
docs-check:
	$(GO) test -run '^Example' ./...
	$(GO) run ./scripts/docscheck -docs README.md,ARCHITECTURE.md,scenarios/SPEC.md -scenario-docs scenarios/SPEC.md

# Observability gate: the full metric catalog (coordinator + worker +
# store + HTTP + build info, assembled from the same Register*
# functions production uses) must pass the naming lint, its text
# exposition must round-trip through the strict Prometheus parser with
# every registered family in it, and the registered families must be
# exactly the family column of ARCHITECTURE.md's metric table.
obs-check:
	$(GO) run ./scripts/obscheck

# API-surface gate: the /v1 route table (methods, paths) must match
# the committed golden exactly and be exactly what a live server
# mounts, checked both ways — every row answers at /v1 while its
# unversioned path is the mux's plain 404, and the routes a fresh
# server instruments in /v1/metrics are the table's rows and no
# others. An intentional surface change regenerates the golden:
#   go test ./cmd/caem-serve -run TestAPIRouteTable -update
api-check:
	$(GO) test -count=1 -run 'TestAPIRouteTable|TestErrorEnvelope' ./cmd/caem-serve/

# Regenerate every paper artifact (tables, figures, ablations) into out/.
figures:
	$(GO) run ./cmd/caem-bench -out out/

# Smoke-run every library scenario through the real CLI (the library is
# also unit-tested by `go test ./caem/`; this drives file loading, flag
# overrides, and the full caem-sim path end to end). The 500 s horizon
# reaches past every library timeline event — all scenarios' last events
# fire by 480 s — so the smoke executes the world mutations themselves,
# not just spec loading.
scenarios:
	@set -e; for f in scenarios/*.json; do \
		echo "== $$f"; \
		$(GO) run ./cmd/caem-sim -scenario $$f -duration 500 >/dev/null; \
	done; echo "all scenarios ran"

# Compile and vet the examples explicitly (they are plain main packages,
# so a plain `go test ./...` would not catch vet regressions in them).
examples:
	$(GO) build ./examples/...
	$(GO) vet ./examples/...

clean:
	rm -rf out/
