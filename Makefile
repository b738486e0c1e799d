# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short cover vet race bench scale-smoke scale-100k profile experiments experiments-quick faults soak fuzz examples service clean

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

# 10k-node scalability smoke: the E1-style placement sweep, connectivity
# analysis and radio broadcast wave under the race detector, then the
# wmsnbench one-off sweep (wall-clock printed per row).
scale-smoke:
	$(GO) test -race -v -run 'TestScale10k' ./internal/experiments/
	$(GO) run ./cmd/wmsnbench -scale -n 10000

# 100k-node sweep without the race detector (its shadow memory makes 100k
# fields pointlessly slow): the hop sweep plus the broadcast wave, with a
# CPU profile for the CI artifact.
scale-100k:
	$(GO) run ./cmd/wmsnbench -scale -n 100000 -cpuprofile scale100k.prof

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
	$(GO) test -race -run 'Fault|Churn|FailsOver|Validate|RunE|ReturnsError|Compromised' ./internal/scenario/
	$(GO) test -race -run 'ReHeals|Resume' ./internal/mesh/

# Seeded chaos/soak harness under the race detector: randomized fault
# plans on lossy media with link ARQ armed, plus attack-randomized
# compromise campaigns (TestSoakAttacks), structural invariants
# (conservation ledger, queue drain, timer hygiene) checked per trial.
soak:
	$(GO) test -race -v -run 'Soak|InvariantViolation' ./internal/chaos/ -soak.trials=16

# Short fuzzing pass over every wire-format parser, the attached SPR, MLR
# and SecMLR stacks, the incremental spatial grid, which fills every radio
# receiver list, the connectivity graph against its pairwise-scan oracle,
# placement's one-graph-per-field hop evaluation against the graph with the
# gateways in it (FuzzFieldMatchesGraph), wmsnd's request decoder and
# validator, the SecMLR crypto primitives against the standard library's
# (FuzzCryptoMatchesStdlib: HMAC against crypto/hmac, AES-CTR against
# crypto/cipher), the trace event encoder against encoding/json
# (FuzzEventJSONMatchesEncodingJSON), and the two readers of what it
# writes: JSONL traces (FuzzReadJSONL) and wmsnd streams (FuzzReadStream,
# wmsntrace -from-stream). A worker
# reports no execs while it minimizes a new input, for up to 60 s by
# default, so minimizing is capped at 1 s to leave the 30 s for fuzzing.
fuzz:
	$(GO) test -fuzz=FuzzUnmarshal -fuzztime=30s -fuzzminimizetime=1s ./internal/packet/
	$(GO) test -fuzz=FuzzParseRReqBlocks -fuzztime=30s -fuzzminimizetime=1s ./internal/core/
	$(GO) test -fuzz=FuzzParseNotifyPayloads -fuzztime=30s -fuzzminimizetime=1s ./internal/core/
	$(GO) test -fuzz=FuzzStackInput -fuzztime=30s -fuzzminimizetime=1s ./internal/core/
	$(GO) test -fuzz=FuzzGridIndexMatchesStaticGrid -fuzztime=30s -fuzzminimizetime=1s ./internal/geom/
	$(GO) test -fuzz=FuzzBuildMatchesBruteForce -fuzztime=30s -fuzzminimizetime=1s ./internal/network/
	$(GO) test -fuzz=FuzzFieldMatchesGraph -fuzztime=30s -fuzzminimizetime=1s ./internal/placement/
	$(GO) test -fuzz=FuzzRunRequest -fuzztime=30s -fuzzminimizetime=1s ./internal/service/
	$(GO) test -fuzz=FuzzCryptoMatchesStdlib -fuzztime=30s -fuzzminimizetime=1s ./internal/wsncrypto/
	$(GO) test -fuzz=FuzzEventJSONMatchesEncodingJSON -fuzztime=30s -fuzzminimizetime=1s ./internal/obs/
	$(GO) test -fuzz=FuzzReadJSONL -fuzztime=30s -fuzzminimizetime=1s ./internal/obs/
	$(GO) test -fuzz=FuzzReadStream -fuzztime=30s -fuzzminimizetime=1s ./cmd/wmsntrace/

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
	rm -f cover.out wmsnbench test_output.txt cpu.prof mem.prof
