# Tier-1 gate: everything `make ci` runs must stay green on every change.
# It is what CI and reviewers run; `go build ./... && go test ./...` is the
# historical minimum, plus vet and a gofmt check, a short race pass (the
# bench engine's worker pool over per-cell machines, and the sgxd job
# queue/store), and the perfbench module, which root `./...` never builds.

GO ?= go

.PHONY: ci vet build test race perfbench fuzz-access test-race-full chaos cluster-smoke membership-smoke stress-smoke bench bench-json golden drift experiments load

ci: vet build test race perfbench

# gofmt runs over tracked files only, so a local .bench_build/ is never
# scanned.
vet:
	$(GO) vet ./...
	@files=$$(git ls-files '*.go') && unformatted=$$(gofmt -l $$files) && \
	  if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Short race pass. In serve/... and cluster, goroutines meet shared state
# under locks. The simulator packages take no host locks: a machine and
# everything built on it belong to one goroutine (DESIGN.md §5), so here
# the race detector checks that the engine's concurrent cells, each on its
# own machine, share nothing (bench's TestEngineMatchesSerialRun, machine's
# TestConcurrentMachinesShareNothing).
race:
	$(GO) test -race -short ./internal/bench/ ./internal/machine/ ./internal/mem/ ./internal/harden/ ./internal/core/ ./internal/serve/... ./internal/cluster/

# The benchmark program is its own module (replace sgxbounds => ../), so a
# change to the packages it drives (internal/bench's engine above all) can
# break it while everything above stays green.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Access-path fuzzing, 20 s per target: the batched pipeline against the
# scalar model (FuzzAccessEquivalence), the rank-byte LRU sets against an
# oldest-stamp scan (FuzzLRUEquivalence), and the EPC page directory against
# a map-based CLOCK EPC (FuzzEPCEquivalence). Same gate the CI
# access-path-fuzz job runs; `make drift` stays the byte-identity gate.
fuzz-access:
	$(GO) test -run '^$$' -fuzz '^FuzzAccessEquivalence$$' -fuzztime 20s ./internal/machine/
	$(GO) test -run '^$$' -fuzz '^FuzzLRUEquivalence$$' -fuzztime 20s ./internal/cache/
	$(GO) test -run '^$$' -fuzz '^FuzzEPCEquivalence$$' -fuzztime 20s ./internal/enclave/

# Full race sweep (slow; run before touching machine/bench concurrency).
test-race-full:
	$(GO) test -race ./...

# Chaos suites: SIGKILL real sgxd processes mid-sweep, fire injected crash
# points in the store's torn-write window, and drive faulted sweeps through
# retry/quarantine — under the race detector. Same gate the CI chaos job runs.
chaos:
	SGXD_CHAOS=1 $(GO) test -race -timeout 20m ./internal/faultline/ ./internal/serve/ ./internal/serve/store/ ./internal/cluster/

# Three real sgxd nodes, one SIGKILLed mid-figure: survivors must stay
# ready, adopt the dead node's journaled job exactly once, converge to
# sgxbench's bytes, and export the cluster counters. Same gate the CI
# cluster-smoke job runs.
cluster-smoke:
	bash ./scripts/cluster_smoke.sh

# Self-healing membership gate: a 2-node fleet under sgxload traffic gains
# a third node via -join (epoch convergence + result re-replication onto
# the newcomer), then loses it again via a graceful `sgxctl cluster leave`
# (queue handoff + store evacuation), with zero 5xx throughout. Same gate
# the CI membership-smoke job runs.
membership-smoke:
	bash ./scripts/membership_smoke.sh

# One small cell per stress kernel through a real sgxd, byte-identical to
# sgxbench, plus the -epc-bytes knob end-to-end. Same gate the CI
# stress-smoke job runs.
stress-smoke:
	bash ./scripts/stress_smoke.sh

# Deep protocol-checking tier: the same explorer `go test` runs at ~12k
# interleavings, with CI's DFS budget plus the seeded random walk. Same
# gate the CI protocheck job runs.
protocheck:
	$(GO) test -timeout 30m ./internal/protocheck/ -protocheck.budget 60000
	$(GO) test -timeout 30m ./internal/protocheck/ -run TestWalkTier -protocheck.walk 20000 -protocheck.seed 7

# Benchmark sweep across every package (benchmarks only, no unit tests).
bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# Record the benchmark sweep plus the sgxd cold/warm serving comparison,
# the stress-kernel headline data (paging cliff, multitask sweep), and the
# membership-churn submit-latency pair (3-node static vs join-under-load),
# which merges into BENCH_cluster.json next to sgxload's 1node/3node runs.
bench-json:
	$(GO) test -run '^$$' -bench=. -benchmem ./... | $(GO) run ./cmd/benchjson -serve fig1 > BENCH_serve.json
	@echo wrote BENCH_serve.json
	$(GO) run ./cmd/benchjson -stress > BENCH_stress.json
	@echo wrote BENCH_stress.json
	$(GO) run ./cmd/benchjson -cluster-churn BENCH_cluster.json
	@echo merged cluster churn runs into BENCH_cluster.json

# Open-loop load run against a freshly booted sgxd on a cold store:
# records submit-latency percentiles, the coalescing ratio, and the 429
# rate into BENCH_load.json, and asserts the admission layer actually
# coalesced (ratio > 1) with zero 5xx. Same gate the CI load-smoke job
# runs. The store must be cold — warm results finish instantly and leave
# no window for identical submits to coalesce.
load:
	$(GO) build -o /tmp/sgxd-load ./cmd/sgxd
	$(GO) build -o /tmp/sgxload ./cmd/sgxload
	rm -rf /tmp/sgxd-load-store
	/tmp/sgxd-load -addr 127.0.0.1:7484 -store /tmp/sgxd-load-store/store -jobs 2 & \
	  pid=$$!; \
	  /tmp/sgxload -addr http://127.0.0.1:7484 -rps 40 -duration 8s -mix 0.8 \
	    -out BENCH_load.json -assert-coalescing -assert-no-5xx; rc=$$?; \
	  kill -TERM $$pid; wait $$pid; exit $$rc

# Refresh the formatter golden files after an intended output change.
golden:
	$(GO) test ./internal/bench -run Golden -update
	$(GO) test ./internal/stress -run Golden -update

# Golden-drift check, locally reproducible: regenerate the captured
# experiment output and every golden file from this checkout, then fail on
# any difference from the committed files. This is the same gate CI runs.
drift:
	$(GO) run ./cmd/sgxbench -experiment all > experiments_output.txt
	$(MAKE) golden
	git diff --exit-code experiments_output.txt internal/bench/testdata/ internal/stress/testdata/

experiments:
	$(GO) run ./cmd/sgxbench -experiment all -progress
