# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short cover vet race bench bench-json bench-arq bench-hotpath bench-scale bench-guard scale-smoke scale-100k profile experiments experiments-quick faults soak fuzz examples service clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1

vet:
	$(GO) vet ./...

# Full suite under the race detector; exercises the parallel experiment
# runner (TestParallelOutputByteIdentical and the runner package tests).
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Snapshot the headline benchmarks (end-to-end throughput, kernel scheduling,
# parallel-runner speedup) as JSON into BENCH_baseline.json, diffed against
# the committed seed-revision snapshot (BENCH_seed.json).
bench-json:
	$(GO) test -run='^$$' -bench='BenchmarkEndToEndSPR$$|BenchmarkEndToEndSecMLR$$|BenchmarkExperimentParallel$$' -benchmem . > bench_output.txt
	$(GO) test -run='^$$' -bench='BenchmarkKernelSchedule$$' -benchmem ./internal/sim/ >> bench_output.txt
	$(GO) test -run='^$$' -bench='BenchmarkDedupe$$' -benchmem ./internal/packet/ >> bench_output.txt
	$(GO) test -run='^$$' -bench='BenchmarkDelivery$$' -benchmem ./internal/radio/ >> bench_output.txt
	$(GO) run ./cmd/benchjson -prev BENCH_seed.json < bench_output.txt > BENCH_baseline.json
	rm -f bench_output.txt

# Link-ARQ hot-path A/B snapshot (BENCH_arq.json): the dormant-ARQ variant
# against the committed baseline (must be within noise), the armed variant
# quantifying ACK/queue overhead, and the lossy variant showing the payoff.
# The iteration count is pinned because each iteration runs seed i+1: a fixed
# count means a fixed seed set, making allocs/op exactly reproducible (the
# bench-guard contract).
bench-arq:
	$(GO) test -run='^$$' -bench='BenchmarkEndToEndSPR$$|BenchmarkEndToEndARQ' -benchmem -benchtime=8x . > bench_output.txt
	$(GO) run ./cmd/benchjson -prev BENCH_baseline.json < bench_output.txt > BENCH_arq.json
	rm -f bench_output.txt

# Hot-path A/B snapshot (BENCH_hotpath.json): batched radio delivery,
# spatial neighbor grid, bitset dedupe and the arena-backed run memory
# against the committed link-ARQ baseline (BENCH_arq.json). The end-to-end
# benchmarks keep the pinned iteration count so the vs_previous ratios are a
# clean same-machine A/B; the micro-benchmarks (dedupe, delivery, topology,
# grid query) record the new subsystems' costs for future diffs.
bench-hotpath:
	$(GO) test -run='^$$' -bench='BenchmarkEndToEndSPR$$|BenchmarkEndToEndARQ' -benchmem -benchtime=8x . > bench_output.txt
	$(GO) test -run='^$$' -bench='BenchmarkDedupe$$' -benchmem -benchtime=8x ./internal/packet/ >> bench_output.txt
	$(GO) test -run='^$$' -bench='BenchmarkDelivery$$' -benchmem -benchtime=8x ./internal/radio/ >> bench_output.txt
	$(GO) test -run='^$$' -bench='BenchmarkPowerControlK$$|BenchmarkBuild$$' -benchmem ./internal/network/ >> bench_output.txt
	$(GO) test -run='^$$' -bench='BenchmarkGridIndexQuery$$' -benchmem ./internal/geom/ >> bench_output.txt
	$(GO) run ./cmd/benchjson -prev BENCH_arq.json < bench_output.txt > BENCH_hotpath.json
	rm -f bench_output.txt

# Scale snapshot (BENCH_scale.json): the 10k and 100k E1-style sweeps and
# the sharded broadcast wave, one pinned iteration each so ns/op is the
# sweep's wall-clock and allocs/op is exactly reproducible. The end-to-end
# and dedupe guard rows ride along (same pinned counts as bench-hotpath) so
# bench-guard can diff against this snapshot going forward.
bench-scale:
	$(GO) test -run='^$$' -bench='BenchmarkEndToEndSPR$$|BenchmarkEndToEndARQ' -benchmem -benchtime=8x . > bench_output.txt
	$(GO) test -run='^$$' -bench='BenchmarkDedupe$$' -benchmem -benchtime=8x ./internal/packet/ >> bench_output.txt
	$(GO) test -run='^$$' -bench='BenchmarkScale' -benchmem -benchtime=1x ./internal/experiments/ >> bench_output.txt
	$(GO) run ./cmd/benchjson -prev BENCH_hotpath.json < bench_output.txt > BENCH_scale.json
	rm -f bench_output.txt

# Allocation guard: the end-to-end benchmarks (pinned seed set, so allocs/op
# are exactly reproducible) and the dedupe micro-benchmark may not allocate
# more per op than the committed BENCH_scale.json baseline. The zero-alloc
# test first pins that dormant telemetry (histograms, progress probes) costs
# nothing on the hot path — the histograms are inline arrays in Memory, so
# the end-to-end allocs/op rows must not move either.
bench-guard:
	$(GO) test -run='TestObserveZeroAlloc' -count=1 ./internal/metrics/
	$(GO) test -run='^$$' -bench='BenchmarkEndToEndSPR$$|BenchmarkEndToEndARQ' -benchmem -benchtime=8x . > bench_output.txt
	$(GO) test -run='^$$' -bench='BenchmarkDedupe$$' -benchmem -benchtime=8x ./internal/packet/ >> bench_output.txt
	$(GO) run ./cmd/benchjson -prev BENCH_scale.json -guard-allocs 1.0 < bench_output.txt > /dev/null
	rm -f bench_output.txt

# 10k-node scalability smoke: the E1-style placement sweep, connectivity
# analysis and radio broadcast wave under the race detector, then the
# wmsnbench one-off sweep (wall-clock printed per row).
scale-smoke:
	$(GO) test -race -v -run 'TestScale10k' ./internal/experiments/
	$(GO) run ./cmd/wmsnbench -scale -n 10000 -shards 4

# 100k-node sweep without the race detector (its shadow memory makes 100k
# fields pointlessly slow): the hop sweep plus the region-sharded broadcast
# wave, with a CPU profile for the CI artifact.
scale-100k:
	$(GO) run ./cmd/wmsnbench -scale -n 100000 -shards 4 -cpuprofile scale100k.prof

# CPU and heap profiles of the quick experiment suite (see DESIGN.md,
# "Profiling"); inspect with `go tool pprof cpu.prof`.
profile:
	$(GO) run ./cmd/wmsnbench -quick -cpuprofile cpu.prof -memprofile mem.prof > /dev/null
	@echo "wrote cpu.prof and mem.prof; inspect with: go tool pprof cpu.prof"

# Regenerate every reproduced table/figure at full scale (~8 minutes).
experiments:
	$(GO) run ./cmd/wmsnbench

experiments-quick:
	$(GO) run ./cmd/wmsnbench -quick

# Fault-injection subsystem under the race detector: the fault package
# (including compromise campaigns), the adversary stacks, the
# scenario-level failover/determinism tests, and the mesh re-heal tests.
faults:
	$(GO) test -race ./internal/fault/
	$(GO) test -race ./internal/attack/
	$(GO) test -race -run 'Fault|Churn|FailsOver|Validate|RunE|Compromised' ./internal/scenario/
	$(GO) test -race -run 'ReHeals|Resume' ./internal/mesh/

# Seeded chaos/soak harness under the race detector: randomized fault
# plans on lossy media with link ARQ armed, plus attack-randomized
# compromise campaigns (TestSoakAttacks*), structural invariants
# (conservation ledger, queue drain, timer hygiene) checked per trial.
soak:
	$(GO) test -race -v -run 'Soak|InvariantViolation' ./internal/chaos/ -soak.trials=16

# Short fuzzing pass over every wire-format parser and the incremental
# spatial grid, which fills every radio receiver list.
fuzz:
	$(GO) test -fuzz=FuzzUnmarshal -fuzztime=30s ./internal/packet/
	$(GO) test -fuzz=FuzzParseRReqBlocks -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzParseNotifyPayloads -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzSecMLRGatewayInput -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzGridIndexMatchesStaticGrid -fuzztime=30s ./internal/geom/

# Simulation-as-a-service daemon: build the binary, then the endpoint,
# cancellation and 64-client load tests under the race detector.
service:
	$(GO) build ./cmd/wmsnd
	$(GO) test -race -v ./internal/service/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/forestfire
	$(GO) run ./examples/battlefield

clean:
	rm -f cover.out wmsnbench test_output.txt bench_output.txt cpu.prof mem.prof
