GO ?= go

.PHONY: all build vet test race bench-smoke benchsmoke bench benchcheck simbench critpath recover netobs soak audit obs-race load load-race ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One pass over the Figure 5 sweep; the simulation is deterministic, so a
# single iteration gives the full virtual-time result set.
bench-smoke:
	$(GO) test -run - -bench BenchmarkFigure5 -benchtime 1x .

# The repository benchmark is a module of its own (bench/go.mod, replacing
# repro with ..), so none of the ./... targets above compile it. Vet it and
# run its unit tests and tiny-scale smoke run (~3 s) here, so a change to
# internal/sim, kern or mbuf that breaks it fails tier-2 and not first the
# benchmark gate.
benchsmoke:
	$(GO) vet -C bench .
	$(GO) test -C bench .

# Regenerate the committed BENCH_fig*.json perf baselines in place. Run
# this (and commit the result) when a change intentionally moves the
# numbers.
bench:
	$(GO) run ./cmd/experiments -exp bench

# The perf-regression gate: regenerate every figure into a scratch
# directory and diff it against the committed baselines. The simulation is
# deterministic, so any drift is a real behavior change.
benchcheck:
	rm -rf .benchfresh && mkdir -p .benchfresh
	$(GO) run ./cmd/experiments -exp bench -benchdir .benchfresh
	$(GO) run ./cmd/benchdiff -baseline . -fresh .benchfresh

# The simulator self-observatory gate: run the seeded workload matrix
# (Figure 5 transfer, the 22-case soak shape, 256- and 1024-flow load
# runs) with the engine meta-profiler attached and exact-diff the
# deterministic sections — events by kind, queue high-waters, kernel
# charges — against the committed BENCH_sim.json. Advisory wall-clock
# and allocation fields are reported but never fail the gate.
simbench:
	rm -rf .simfresh && mkdir -p .simfresh
	$(GO) run ./cmd/experiments -exp simbench -benchdir .simfresh
	$(GO) run ./cmd/benchdiff -baseline . -fresh .simfresh BENCH_sim.json

# The causal critical-path gate: rebuild the happens-before graphs over
# the Figure 5 sweep (both stack modes) plus the 64-flow incast, reduce
# each to its per-cause latency attribution, and exact-diff against the
# committed BENCH_critpath.json. The per-cause nanoseconds are pure
# functions of the virtual event sequence; only the advisory analysis
# wall time may drift.
critpath:
	rm -rf .critfresh && mkdir -p .critfresh
	$(GO) run ./cmd/experiments -exp critpath -benchdir .critfresh
	$(GO) run ./cmd/benchdiff -baseline . -fresh .critfresh BENCH_critpath.json

# The fault-domain recovery gate: run the partition/heal, adaptor-reset,
# and peer-death matrix plus the abort state-matrix and liveness tests
# under the race detector, then regenerate BENCH_recover.json and
# exact-diff its deterministic fields (injection schedule, first-goodput
# instant, per-flow fates) against the committed baseline. Recovery time
# is virtual, so drift means the recovery machinery itself changed.
recover:
	$(GO) test -race -count 1 -run 'TestRecover|TestAbort|TestKeepAlive|TestUserTimeout' ./internal/fault/soak ./internal/tcpip
	rm -rf .recoverfresh && mkdir -p .recoverfresh
	$(GO) run ./cmd/experiments -exp recover -benchdir .recoverfresh
	$(GO) run ./cmd/benchdiff -baseline . -fresh .recoverfresh BENCH_recover.json

# The transport-dynamics gate: run the observatory unit and machine-check
# tests (nil-hook zero-alloc, verdict rules, same-seed byte-identity, the
# incast postmortem acceptance pair) under the race detector, then
# regenerate the fairness-pair postmortems and exact-diff them against
# the committed BENCH_netobs.json. Every field is a pure function of the
# seeded event sequence, so any drift is a congestion-behavior change.
netobs:
	$(GO) test -race -count 1 -run 'NetObs' ./internal/obs/netobs ./internal/tcpip ./internal/hippi ./internal/load ./internal/exp
	rm -rf .netobsfresh && mkdir -p .netobsfresh
	$(GO) run ./cmd/experiments -exp netobs -benchdir .netobsfresh
	$(GO) run ./cmd/benchdiff -baseline . -fresh .netobsfresh BENCH_netobs.json

# The multi-switch fabric: topology grammar, ECMP hashing, CE marking,
# the congestion-control comparison (Reno RTO-bound vs DCTCP healthy on
# the same capped trunk), and the exact-diffed fabric baseline.
fabric:
	$(GO) test -race -count 1 -run 'Fabric|ECMP|MarkCE|Topolog|Parse|CC|Dctcp|Ecn|ECN' ./internal/fabric ./internal/tcpip ./internal/hippi ./internal/load ./internal/exp
	rm -rf .fabricfresh && mkdir -p .fabricfresh
	$(GO) run ./cmd/experiments -exp fabric -benchdir .fabricfresh
	$(GO) run ./cmd/benchdiff -baseline . -fresh .fabricfresh BENCH_fabric.json

# The adversarial soak suite: seeded fault plans against full transfers,
# under the race detector, plus the determinism and recovery-corner tests.
soak:
	$(GO) test -race -count 1 ./internal/fault/...

# The single-copy auditor: run both stack variants with the data-touch
# ledger on, print the measured copy-count table, and fail unless the
# oracles hold (single-copy: exactly one checksum-in-flight host-bus DMA
# and zero CPU touches per sender byte). A standing invariant: this must
# stay green.
audit:
	mkdir -p .benchfresh
	$(GO) run ./cmd/experiments -exp touches -benchdir .benchfresh

# The observability layer under the race detector (ledger, spans, prof).
obs-race:
	$(GO) test -race -count 1 ./internal/obs/...

# The many-flow workload engine: fairness acceptance, 256/1024-flow
# determinism, and the netmem arbiter unit tests.
load:
	$(GO) test -count 1 ./internal/load/... ./internal/cab/...

# The same suite under the race detector (the 256-flow determinism pair
# doubles as the concurrency check).
load-race:
	$(GO) test -race -count 1 ./internal/load/...

ci: vet build race bench-smoke benchsmoke soak obs-race load load-race audit simbench critpath recover netobs fabric benchcheck
