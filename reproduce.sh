#!/bin/sh
# Reproduce every result in EXPERIMENTS.md from scratch.
#
# Usage: ./reproduce.sh [output-dir]
#
# Produces, under the output directory (default ./repro):
#   experiments.txt   the full text report (Table 1, Fig. 3, Fig. 4, ablations)
#   results/*.csv     machine-readable results
#   results/*.json
#   figs/*.svg        rendered figures
#   fig1.txt          the Fig. 1 pipeline diagrams
#   test.txt          the full test-suite run
#   fuzz_smoke.txt    ten seconds of fuzzing per fuzz target
set -eu

out=${1:-repro}
mkdir -p "$out"

echo "== building =="
go build ./...

# Note: exit status of `cmd | tee` is tee's, so capture via file instead.
echo "== checks (gofmt, vet, race-enabled tests) =="
if make check >"$out/check.txt" 2>&1; then
	cat "$out/check.txt"
else
	cat "$out/check.txt"
	echo "reproduce.sh: 'make check' FAILED -- see $out/check.txt" >&2
	exit 1
fi

echo "== vet =="
go vet ./...

echo "== race-enabled harness + observability tests =="
go test -race ./internal/obs ./internal/cpu ./internal/obsweb ./internal/harness ./internal/jobs ./internal/fleet ./internal/load | tee "$out/race_harness.txt"

echo "== tests =="
go test ./... | tee "$out/test.txt"

echo "== fuzz smoke (10 s per fuzz target) =="
if make fuzz-smoke >"$out/fuzz_smoke.txt" 2>&1; then
	cat "$out/fuzz_smoke.txt"
else
	cat "$out/fuzz_smoke.txt"
	echo "reproduce.sh: 'make fuzz-smoke' FAILED -- see $out/fuzz_smoke.txt" >&2
	exit 1
fi

echo "== benchmark regression gate =="
if go run ./cmd/benchcheck >"$out/benchcheck.txt" 2>&1; then
	cat "$out/benchcheck.txt"
else
	cat "$out/benchcheck.txt"
	echo "reproduce.sh: benchcheck FAILED -- see $out/benchcheck.txt" >&2
	exit 1
fi

echo "== live observability server smoke test =="
sh scripts/serve_smoke.sh "$out/serve_smoke"

echo "== job service smoke test (vserved durability, dedup, -submit) =="
sh scripts/jobs_smoke.sh "$out/jobs_smoke"

echo "== load/soak/chaos harness smoke test (SLO gate, exactly-once) =="
sh scripts/load_smoke.sh "$out/load_smoke"

echo "== fleet runner smoke test (sharded sweep, worker SIGKILL, requeue) =="
sh scripts/fleet_smoke.sh "$out/fleet_smoke"

echo "== Fig. 1 diagrams =="
go run ./cmd/vpipe | tee "$out/fig1.txt"

echo "== full evaluation (several minutes) =="
go run ./cmd/vsweep -all -out "$out/results" -svg "$out/figs" | tee "$out/experiments.txt"

echo "done: see $out/"
