GO ?= go

.PHONY: build test race vet lint verify experiments serve-smoke fleet-smoke fuzz fuzz-soak bench profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint builds and runs the spotverse-lint multichecker: the determinism
# analyzers (detrand, mapiter, seedflow, errdrop) plus the concurrency &
# hot-path analyzers (lockorder, goleak, atomicmix, hotpath) over every
# package. Violations — including malformed //spotverse:allow and
# //spotverse:hotpath annotations — fail the build; see DESIGN.md
# "Static analysis & determinism invariants" and "Concurrency & hot-path
# invariants". By-value copies of locks and typed atomics are left to
# the copylocks pass of `make vet`.
lint:
	$(GO) run ./cmd/spotverse-lint ./...

# verify is the pre-merge gate: static checks (vet, the determinism
# lint suite), a clean build, and the full test suite under the race
# detector.
verify: vet lint build race

experiments:
	$(GO) run ./cmd/spotverse-experiments -exp all

# serve-smoke exercises cmd/spotverse-serve end to end: deterministic
# trace replay (byte-identical across runs), an overload burst that
# must shed without errors, and a live SIGTERM drain that must exit 0
# with a flushed, replayable recorded trace.
serve-smoke:
	sh scripts/serve_smoke.sh

# fleet-smoke drives the fleet-scale path end to end: a 10k-workload
# `-exp fleet` sweep under the race detector, byte-identical across
# partition and worker counts, inside a wall-clock budget and an RSS
# ceiling, then a race-free 100k sweep at -parallel 2 under a 200 MB
# RSS ceiling (see scripts/fleet_smoke.sh for the budgets).
fleet-smoke:
	sh scripts/fleet_smoke.sh

# fuzz runs the PR-gate fault-space campaign: 50 fixed-seed composite
# chaos plans through the full stack with every invariant checked. Any
# violation shrinks to a replayable fuzz-repro-<seed>.json and fails
# the target.
fuzz:
	$(GO) run ./cmd/spotverse-fuzz -seeds 50

# fuzz-soak is the nightly-depth campaign: 1000 seeds, verbose
# per-seed progress. Same determinism guarantees — a soak failure
# reproduces byte-identically from its repro file.
fuzz-soak:
	$(GO) run ./cmd/spotverse-fuzz -seeds 1000 -v

# bench runs the end-to-end benchmark, spotverse-bench, over all four
# workloads at seed 42 (see cmd/spotverse-bench/README.md). Run
# cmd/spotverse-bench/run.sh directly to pass flags, e.g. `--trace 1`
# for the per-layer pass or `--out`/`--compare` to diff two records.
bench:
	bash cmd/spotverse-bench/run.sh

# profile captures pprof CPU and heap profiles of the full experiment
# sweep; inspect with `go tool pprof cpu.pprof`.
profile:
	$(GO) run ./cmd/spotverse-experiments -exp all -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof"
