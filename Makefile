GO ?= go

.PHONY: all build vet test race allocs fuzz bench-smoke benchsmoke bench benchcheck gate audit soak obs-race load load-race ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The allocation pins (tests named *Alloc* or *Budget*: zero-allocation
# walks, mallocs per event and per segment, bytes per payload byte) without
# the race detector. Under -race they skip — the detector allocates on its
# own — so `race` never runs them.
allocs:
	$(GO) test -count 1 -run 'Alloc|Budget' ./...

# Every Fuzz* target under internal/ for ten seconds on top of its
# committed seed corpus (testdata/fuzz next to the test). The targets are
# found by name, so a new one runs without an edit here: parsers must
# reject bad input with an error and never panic, data-path operations
# must agree with a simple model on pools in check mode and leak no
# buffer. A failing input is written to that corpus; commit it with the fix.
fuzz:
	@set -e; for f in $$(grep -rl --include='*_test.go' '^func Fuzz' internal); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "fuzz $$t ($$(dirname $$f))"; \
			$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 10s ./$$(dirname $$f); \
		done; \
	done

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

# Regenerate every committed baseline in place; the registry in
# internal/exp says which files those are (`go run ./cmd/experiments -h`).
# Run this (and commit the result) when a change intentionally moves the
# numbers.
bench:
	$(GO) run ./cmd/experiments -exp bench -benchdir .

# The perf-regression gate: regenerate every registry entry that has a
# baseline, in process, and diff it against the committed file under the
# entry's tolerance class. The simulation is deterministic, so any drift
# is a real behavior change; advisory wall-clock and allocation fields are
# reported but never fail the gate.
benchcheck:
	$(GO) run ./cmd/experiments -check

# The same gate for some entries only: make gate G=simbench, or
# G="recover netobs".
gate:
	$(GO) run ./cmd/experiments -check $(G)

# The single-copy auditor: run both stack variants with the data-touch
# ledger on, print the measured copy-count table, and fail unless the
# oracles hold (single-copy: exactly one checksum-in-flight host-bus DMA
# and zero CPU touches per sender byte). A standing invariant: this must
# stay green.
audit:
	$(GO) run ./cmd/experiments -exp touches

# Convenience subsets of `race`, for iterating on one subsystem; ci does
# not run them because `go test -race ./...` already ran the same tests
# under the same detector.

# The adversarial soak suite: seeded fault plans against full transfers,
# plus the determinism and recovery-corner tests.
soak:
	$(GO) test -race -count 1 ./internal/fault/...

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

# The GitHub workflow runs exactly these, one step each, in this order.
ci: vet build race allocs fuzz bench-smoke benchsmoke audit benchcheck
