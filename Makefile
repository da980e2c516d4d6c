# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test bench bench-wide benchcheck vet fmt check fuzz-smoke race-harness serve-smoke jobs-smoke load-smoke fleet-smoke reproduce experiments clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full benchmark pass used for bench_output.txt.
bench:
	$(GO) test -bench=. -benchmem ./...

# The wide-window benchmarks: whole simulations and the per-cycle loop on a
# 16-wide/512-entry window (docs/PERFORMANCE.md quotes these numbers).
bench-wide:
	$(GO) test -run '^$$' -bench '^(BenchmarkReadyQueueWide|BenchmarkBitsetSelect)$$' -benchmem ./internal/cpu

# The benchmark regression gate: pinned benchmarks vs BENCH_BASELINE.json,
# failing on >15% slowdown. Refresh the baseline with
# `go run ./cmd/benchcheck -update` after intentional performance changes.
benchcheck:
	$(GO) run ./cmd/benchcheck

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# The pre-merge gate: formatting, vet, and the race-enabled test suite
# (which covers the harness worker pool; see race-harness for the quick
# targeted run).
check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) test -race ./...

# Ten seconds of native fuzzing per target on the decoders of untrusted or
# round-tripped input: the VSTR trace codec, the compact trace recording,
# the assembler, the binary program reader and the job service's submit
# path; on random programs run by the emulator and its reference; and on
# random streams run by each value predictor and its full-size-table
# reference. Go fuzzes one target per invocation, hence one line each.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzVSTRRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzVSTRReader$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzRecordingRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzAssemble$$' -fuzztime $(FUZZTIME) ./internal/program
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME) ./internal/program
	$(GO) test -run '^$$' -fuzz '^FuzzSubmitRequest$$' -fuzztime $(FUZZTIME) ./internal/jobs
	$(GO) test -run '^$$' -fuzz '^FuzzEmulatorMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/emu
	$(GO) test -run '^$$' -fuzz '^FuzzPredictorsMatchReference$$' -fuzztime $(FUZZTIME) ./internal/vpred

# Race-enabled run of just the concurrency-bearing packages (the harness
# worker pool plus the observability stack it publishes through), for quick
# iteration; `make check` runs the whole suite under -race.
race-harness:
	$(GO) test -race ./internal/obs ./internal/cpu ./internal/obsweb ./internal/harness ./internal/jobs ./internal/fleet ./internal/load

# End-to-end smoke test of the live observability server: a quick sweep
# with -serve, probed over HTTP while it runs.
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end smoke test of the job service: vserved durability across a
# kill/restart, result-store dedup, and vsweep -submit equivalence.
jobs-smoke:
	sh scripts/jobs_smoke.sh

# End-to-end soak of the load/chaos harness: an SLO-gated 10s hotkey soak at
# 500 submissions/sec, a kill-restart chaos pass proving exactly-once
# execution, and negative legs (impossible SLO, fabricated manifest entry)
# proving the gates can fail.
load-smoke:
	sh scripts/load_smoke.sh

# End-to-end smoke test of the distributed fleet runner: a sharded Fig. 3
# sweep drained by remote lease-protocol workers, byte-identical to the
# local run, surviving a mid-sweep worker SIGKILL with a lease requeue.
fleet-smoke:
	sh scripts/fleet_smoke.sh

# Regenerate every table, figure and ablation (several minutes).
experiments:
	$(GO) run ./cmd/vsweep -all -out repro/results -svg repro/figs | tee experiments_output.txt

reproduce:
	./reproduce.sh

clean:
	rm -rf repro
