# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); `make bench` additionally leaves a
# machine-readable BENCH_<sha>.json so performance is tracked per commit.

SHA := $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)

# Runs per key benchmark: benchjson folds them into a median and quartiles,
# and bench-check compares medians against the baseline's spread instead of
# one sample against another.
BENCH_COUNT := 5

# The key benchmarks: the two heaviest figure cells, the paper's
# 30-transfer latency claim, the 60-transfer cross-site cold request (one
# flow component re-solved at every completion), the hypothesis-selection
# fan-out, the
# snapshot layer's concurrency/copy-on-write claims, the scenario
# overlay/batched-evaluation claims, differential evaluation (base-answer
# reuse vs cold), and the end-to-end HTTP serving
# path (one predict sub-benchmark per rung of the serving ladder, pooled
# encoders vs encoding/json, cold-miss's 60-transfer cross-site request
# served in process, plus the coalescing burst), and assembling
# the g5k_test platform (Generate + compile, with the live heap it keeps),
# publishing every host pair's route into a fresh snapshot (the memo's
# live heap and one forced GC over it), and a durable restart (store.Open
# plus Registry.Add over a 2000-observation log tail).
KEY_BENCH := BenchmarkFigure09|BenchmarkFigure11|BenchmarkPredict30Transfers$$|BenchmarkCold60CrossSite|BenchmarkSelectFastest|BenchmarkWarmRoute|BenchmarkConcurrentPredict30|BenchmarkWithLinkState|BenchmarkTimelineAppend|BenchmarkPredictAtHorizon|BenchmarkApplyOverlay|BenchmarkEvaluate30x8|BenchmarkEvaluateDifferential30x8|BenchmarkGatewayEvaluateFleet|BenchmarkHTTPPredict30|BenchmarkHTTPPredict60CrossSite|BenchmarkHTTPEvaluate30x8|BenchmarkHTTPCoalesced64Clients|BenchmarkPlatformSetup|BenchmarkRouteMemoAllPairs|BenchmarkRegistryRestart

.PHONY: all build test vet unlinked flag-docs fma-check race bench bench-smoke bench-check bench-baseline bench-fleet campaign-check recovery-check fleet-smoke loadgen-smoke profile clean

all: vet build test

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

# unlinked fails on a function or method declared in non-test code under
# internal/ that no program of the module links, and on an internal
# package no program imports: code nothing runs is deleted, not carried.
# Every `package main` is built with inlining off (a function inlined at
# every call site has no symbol of its own), and the pilgrim/internal/...
# text symbols the programs link are compared with the `^func` lines of
# the gofmt'd sources. nm's whole name is kept, because a generic
# instantiation's name holds spaces (go.shape.struct { ... }); generic
# brackets are stripped and (*T).M reads as T.M. A package archive's
# symbols would not do: they also hold wrappers for interface methods.
#
# UNLINKED_KEEP lists what no program links but stays, each line under
# its reason (names relative to pilgrim/internal/, extended regexes).
# Test oracles: the XML reader checks WriteXML in a round trip, Equal
# checks RRD Save/Load.
UNLINKED_KEEP := platform\.(Parse|fillAS|ParseRoutingKind|ParseSharingPolicy) rrd\.RRD\.Equal
# The paper's §III-B statistical baseline (BenchmarkBaselineNWS,
# TestNWSContentionBlindness) and the predictor choice its tests read.
UNLINKED_KEEP += nws\.(NewPathForecaster|PathForecaster\.(Observe|PredictTransfer)|Selector\.Best|Bank\.BestBandwidthPredictor)
# The replay the crash-recovery drill (TestCrashRecoveryDrill) interrupts.
UNLINKED_KEEP += campaign\.ReplaySteps
# Durability: an explicit fsync of the write-ahead log.
UNLINKED_KEEP += store\.WAL\.Sync
# Solver state the max-min solver's oracle tests read.
UNLINKED_KEEP += flow\.(Constraint\.(Capacity|Saturated|Usage|Variables)|System\.(AddVariable|Constraints|Solved|Variables)|Variable\.(Bound|Constraints|Weight))
# Accessors, constructors and client calls tests of other packages use.
UNLINKED_KEEP += keyed\.Cache\.Flights pilgrim\.Client\.(CacheStats|PredictTransfersAt|PredictWorkflow|TimelineStats)
UNLINKED_KEEP += platform\.(Host\.Prop|Platform\.(Host|HostsWhere|Links)) sim\.(NewSnapshotSimulation|Simulation\.AddBackgroundFlow) stats\.RNG\.(Perm|Shuffle)
# The emulated testbed's latency model, checked against the paper's RTTs.
UNLINKED_KEEP += testbed\.Testbed\.RTT

unlinked:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	mains=$$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); \
	go build -gcflags=all=-l -o "$$dir/" $$mains || exit 1; \
	for b in "$$dir"/*; do go tool nm "$$b"; done \
		| sed -nE 's/^ *[0-9a-f]+ T (pilgrim\/internal\/)/\1/p' \
		| sed -E ':a; s/\[[^][]*\]//g; ta; s/\(\*?([A-Za-z0-9_]+)\)/\1/' | sort -u > "$$dir/linked"; \
	grep -E '^func ' $$(find internal -name '*.go' ! -name '*_test.go') \
		| sed -E 's#^(internal/[^:]*)/[^/:]*\.go:func \(([A-Za-z0-9_]+ )?\*?([A-Za-z0-9_]+)[^)]*\) ([A-Za-z0-9_]+).*#pilgrim/\1.\3.\4#; s#^(internal/[^:]*)/[^/:]*\.go:func ([A-Za-z0-9_]+).*#pilgrim/\1.\2#' \
		| grep -vE '\.init$$' | sort -u > "$$dir/declared"; \
	keep=$$(printf '%s' '$(strip $(UNLINKED_KEEP))' | tr ' ' '|'); \
	bad=$$(comm -23 "$$dir/declared" "$$dir/linked" | grep -vxE "pilgrim/internal/($$keep)"; \
		go list ./internal/... | grep -vxF "$$(go list -deps $$mains)"); \
	if [ -n "$$bad" ]; then printf 'unlinked: no program links %s\n' $$bad; exit 1; fi; \
	echo "unlinked: every internal function is linked into a program or kept in UNLINKED_KEEP"

# flag-docs fails when a flag that `pilgrimd -h` or `pilgrimgw -h` lists
# is named in none of docs/OPERATIONS.md, docs/API.md and README.md: an
# operator reads the docs, not the source.
flag-docs:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	go build -o "$$dir/" ./cmd/pilgrimd ./cmd/pilgrimgw || exit 1; \
	missing=$$(for b in pilgrimd pilgrimgw; do "$$dir/$$b" -h 2>&1 | sed -nE "s/^  (-[a-z0-9-]+).*/$$b \1/p"; done \
		| while read -r b f; do grep -qE -- "(^|[^a-z0-9-])$$f([^a-z0-9-]|$$)" docs/OPERATIONS.md docs/API.md README.md || echo "$$b $$f"; done); \
	if [ -n "$$missing" ]; then printf '%s\n' "$$missing" | sed 's/^/flag-docs: documented nowhere: /'; exit 1; fi; \
	echo "flag-docs: every pilgrimd and pilgrimgw flag is documented"

# fma-check cross-compiles every package and every test variant for the
# architectures whose compiler fuses x*y+z into one fused multiply-add,
# and fails on any such instruction in this module's code. An FMA rounds
# once instead of twice, so a forecast (or a test oracle's expectation)
# computed there would differ in its last bits from amd64's; an explicit
# float64(...) around the product rounds it and keeps the compiler from
# fusing. `go list -test -export` compiles test packages without linking
# them. The listing goes through printf, not echo: dash's echo stops at a
# \c in its hex dumps.
FMA_ARCHS := arm64 ppc64le s390x riscv64

fma-check:
	@fail=0; for arch in $(FMA_ARCHS); do \
		asm=$$(GOARCH=$$arch go list -test -export -trimpath -gcflags='pilgrim/...=-S' ./... 2>&1 >/dev/null) || \
			{ GOARCH=$$arch go list -test -export ./... >/dev/null; exit 1; }; \
		sites=$$(printf '%s\n' "$$asm" | grep -E '\sFN?M(ADD|SUB)[DS]?\s' | grep -oE '\(pilgrim/[^)]*\.go:[0-9]+\)' | sort -u); \
		if [ -n "$$sites" ]; then echo "fma-check: $$arch fuses at"; echo "$$sites"; fail=1; fi; \
	done; \
	if [ $$fail = 0 ]; then echo "fma-check: no fused multiply-add on $(FMA_ARCHS), test code included"; fi; \
	exit $$fail

race:
	go test -race ./internal/keyed/... ./internal/platform/... ./internal/pilgrim/... ./internal/sim/... ./internal/flow/... ./internal/campaign/... ./internal/store/... ./internal/shard/... ./internal/gateway/...

# recovery-check is the durability gate: WAL framing/torn-tail/corruption
# fault injection, registry warm-restart byte-identity (with and without
# a clean close, across compaction, under concurrent ingest, with
# non-finite observations), the campaign-level restart drill
# (docs/OPERATIONS.md), and one restart benchmark iteration as a smoke test.
recovery-check:
	go test -count 1 ./internal/store/...
	go test -count 1 ./internal/pilgrim -run 'TestRegistryWarmRestart|TestRegistryRecoveryWithoutClose|TestRegistryRefusesForeignDataDir|TestRegistryConcurrentIngestAndCompaction|TestRegistryNonFiniteUpdatesAgreeAcrossModes'
	go test -count 1 ./internal/campaign -run 'TestCrashRecoveryDrill'
	go test -run '^$$' -bench 'BenchmarkRegistryRestart' -benchtime 1x -benchmem .

# campaign-check is the CI drill gate: every example campaign must
# validate (names resolve against the generated platform), the smoke
# campaign must replay with all assertions green, and the golden-report
# test catches any drift in the committed JSON/CSV reports
# (docs/CAMPAIGNS.md; refresh with UPDATE_CAMPAIGN_GOLDEN=1).
campaign-check:
	go run ./cmd/pilgrimsim validate examples/campaigns/*.yaml
	go run ./cmd/pilgrimsim run examples/campaigns/smoke.yaml
	go test ./internal/campaign -run 'TestExampleCampaignsGolden|TestReplayConcurrentWithIngestAndHTTP|TestCrashRecoveryDrill'

# bench runs the key benchmarks BENCH_COUNT times with -benchmem and writes
# BENCH_$(SHA).json (per benchmark: median ns/op + B/op + allocs/op, run
# count and ns/op quartiles) next to the raw output.
bench:
	go test -run '^$$' -bench '$(KEY_BENCH)' -benchmem -count $(BENCH_COUNT) . | tee bench_$(SHA).out
	go run ./cmd/benchjson < bench_$(SHA).out > BENCH_$(SHA).json
	@echo wrote BENCH_$(SHA).json

# bench-smoke is the CI variant: every benchmark once, just to prove none
# of them crashes or asserts.
bench-smoke:
	go test -run '^$$' -bench . -benchtime=1x -benchmem ./...

# bench-check runs the key benchmarks and fails when any figure benchmark's
# median slowed by more than 25% against the committed baseline's and by
# more than the baseline's own inter-quartile spread — and when the
# serving hot path (a poll, a canonical hit, a miss, an evaluate grid
# answered from the caches and one with fresh sizes and factors), the
# in-process forecast (whose one allocation is the answer), a differential evaluate
# or a single-picture evaluate (the runner's all-cold case) re-grows
# allocations by more than 10% (allocation counts are nearly deterministic,
# so the tighter threshold holds; the fresh-factor grid, whose derived
# epochs are new every iteration, is the gate that catches an engine built
# per epoch, which no fixed-epoch benchmark sees) — and when assembling g5k_test,
# publishing all its host-pair routes (the gates that catch per-route
# objects coming back, in the builder or in the route memo) or a durable
# restart (the gate that catches a per-field allocating log decoder) does. Only
# single-threaded benchmarks gate cross-run: the RunParallel benchmarks
# scale with the machine's core count and would make a cross-machine
# comparison meaningless. The last check is within THIS run: the
# pooled-encoder path must stay well ahead of the encoding/json legacy
# path on the same canonical hits (the in-process sub-benchmarks differ
# only in the response writer), and a rendered hit (same request line)
# must stay well ahead of a canonical hit (same multiset, reordered).
# All three gates run and print a verdict; the target fails if any failed.
bench-check: bench
	@fail=0; \
	if go run ./cmd/benchdiff -count $(BENCH_COUNT) -match 'BenchmarkFigure|BenchmarkPredict30Transfers|BenchmarkCold60CrossSite|BenchmarkEvaluateDifferential30x8' BENCH_baseline.json BENCH_$(SHA).json; then echo "bench-check: ns gate passed"; else echo "bench-check: ns gate FAILED"; fail=1; fi; \
	if go run ./cmd/benchdiff -count $(BENCH_COUNT) -allocs-threshold 0.10 -match 'BenchmarkHTTPPredict30/hit-rendered|BenchmarkHTTPPredict30/hit-canonical|BenchmarkHTTPPredict30/miss|BenchmarkPredict30Transfers$$|BenchmarkHTTPEvaluate30x8/all-hit|BenchmarkHTTPEvaluate30x8/fresh|BenchmarkEvaluateDifferential30x8/differential|BenchmarkEvaluateDifferential30x8/lone|BenchmarkPlatformSetup|BenchmarkRouteMemoAllPairs|BenchmarkRegistryRestart' BENCH_baseline.json BENCH_$(SHA).json; then echo "bench-check: allocs gate passed"; else echo "bench-check: allocs gate FAILED"; fail=1; fi; \
	if go run ./cmd/benchdiff -scale 'BenchmarkHTTPPredict30/legacy,BenchmarkHTTPPredict30/hit-canonical,1.4;BenchmarkHTTPPredict30/hit-canonical,BenchmarkHTTPPredict30/hit-rendered,3;BenchmarkHTTPEvaluate30x8/legacy,BenchmarkHTTPEvaluate30x8/all-hit,1.4' BENCH_$(SHA).json; then echo "bench-check: scale gate passed"; else echo "bench-check: scale gate FAILED"; fail=1; fi; \
	exit $$fail

# bench-baseline refreshes the committed baseline from a fresh run; commit
# the result whenever a PR intentionally shifts performance.
bench-baseline: bench
	cp BENCH_$(SHA).json BENCH_baseline.json
	@echo refreshed BENCH_baseline.json

# bench-fleet gates the sharded-fleet scaling claim: evaluate throughput
# through pilgrimgw must reach >= 1.7x at 2 workers and >= 3x at 4
# workers vs a single worker. The ratio is within ONE run (benchdiff
# -scale), never against the committed baseline — parallel speedup does
# not compare across machines — and it is only enforced where it is
# physically possible: with < 4 CPUs a CPU-bound simulation fleet cannot
# scale, so the benchmarks still run but the ratio check is skipped.
bench-fleet:
	go test -run '^$$' -bench 'BenchmarkGatewayEvaluateFleet' -benchtime 50x -count 1 . | tee bench_fleet_$(SHA).out
	go run ./cmd/benchjson < bench_fleet_$(SHA).out > BENCH_fleet_$(SHA).json
	@if [ "$$(nproc)" -ge 4 ]; then \
		go run ./cmd/benchdiff -scale 'BenchmarkGatewayEvaluateFleet/workers=1,BenchmarkGatewayEvaluateFleet/workers=2,1.7;BenchmarkGatewayEvaluateFleet/workers=1,BenchmarkGatewayEvaluateFleet/workers=4,3.0' BENCH_fleet_$(SHA).json; \
	else \
		echo "bench-fleet: $$(nproc) CPU(s) < 4 — scaling ratio check skipped (needs cores to parallelize)"; \
	fi

# fleet-smoke is the end-to-end fleet drill with real binaries: two
# pilgrimd shards plus a pilgrimgw, the smoke campaign replayed through
# the gateway, and the report byte-compared against the committed golden
# (docs/OPERATIONS.md, "Running a fleet").
fleet-smoke:
	./scripts/fleet_smoke.sh

# loadgen-smoke drives a real pilgrimd with cmd/pilgrimload for ~2s and
# asserts a sane serving path: nonzero QPS and zero errors
# (docs/OPERATIONS.md, "Load testing").
loadgen-smoke:
	./scripts/loadgen_smoke.sh

# profile captures CPU and allocation profiles of the evaluate hot path
# (the differential and steady-state evaluate benchmarks exercise the
# overlay, classification, and cache layers), and CPU profiles of the two
# shapes where the max-min solver (flow.System.Solve) dominates: an
# evaluate grid with fresh sizes and factors served over HTTP (the
# whatif-grid workload's shape) and one cold 60-transfer cross-site
# forecast (cold-miss's), and of that forecast's request served through
# the handler (coldmiss_http_cpu.pprof: query decode, canonicalize, the
# simulation, store and encode). It also profiles platform assembly (Generate +
# Snapshot of g5k_test, what every workload's setup_s pays) into
# setup_cpu.pprof. Inspect with e.g.
# `go tool pprof -top profiles/cold60_cpu.pprof`.
profile:
	mkdir -p profiles
	go test -run '^$$' -bench 'BenchmarkEvaluateDifferential30x8|BenchmarkEvaluate30x8' -benchtime 1000x -count 1 \
		-cpuprofile profiles/evaluate_cpu.pprof -memprofile profiles/evaluate_mem.pprof .
	go test -run '^$$' -bench '^BenchmarkHTTPEvaluate30x8$$/^fresh$$' -benchtime 2000x -count 1 \
		-cpuprofile profiles/whatif_cpu.pprof .
	go test -run '^$$' -bench '^BenchmarkCold60CrossSite$$' -benchtime 3000x -count 1 \
		-cpuprofile profiles/cold60_cpu.pprof .
	go test -run '^$$' -bench '^BenchmarkHTTPPredict60CrossSite$$/^miss$$' -benchtime 3000x -count 1 \
		-cpuprofile profiles/coldmiss_http_cpu.pprof .
	go test -run '^$$' -bench '^BenchmarkPlatformSetup$$' -benchtime 100x -count 1 \
		-cpuprofile profiles/setup_cpu.pprof .
	@echo wrote profiles/evaluate_cpu.pprof profiles/evaluate_mem.pprof profiles/whatif_cpu.pprof profiles/cold60_cpu.pprof profiles/coldmiss_http_cpu.pprof profiles/setup_cpu.pprof

clean:
	rm -f bench_*.out
	rm -rf profiles
	find . -maxdepth 1 -name 'BENCH_*.json' ! -name 'BENCH_baseline.json' ! -name 'BENCH_[0-9][0-9].json' -delete
