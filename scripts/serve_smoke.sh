#!/bin/sh
# Smoke-test the observability surfaces end-to-end. First vsim's interval
# table: at a capacity that decimates, its retired column must still sum to
# the run's retired total, and its JSON form must parse. Then the live
# server: start a quick sweep with -serve on an ephemeral port, curl the
# probes and the Prometheus exposition while it runs, and assert the metrics
# a dashboard would scrape are actually there. Nonzero exit on any failure.
#
# Usage: scripts/serve_smoke.sh [workdir]
set -eu

dir=${1:-$(mktemp -d)}
mkdir -p "$dir"
log="$dir/serve_smoke.log"
bin="$dir/vsweep"

fail() {
	echo "serve_smoke: FAIL: $*" >&2
	echo "serve_smoke: ---- sweep log ----" >&2
	cat "$log" >&2 || true
	exit 1
}

go build -o "$bin" ./cmd/vsweep
go build -o "$dir/vsim" ./cmd/vsim

# vsim -metrics-out: 50-cycle samples into 8 retained rows decimate.
"$dir/vsim" -bench compress -model great -scale 1 -metrics-out "$dir/m.csv" \
	-metrics-interval 50 -metrics-cap 8 >"$log" 2>&1 || fail "vsim -metrics-out m.csv"
grep -q 'decimated' "$log" || fail "vsim table did not decimate"
retired=$(sed -n 's/.* retired=\([0-9]*\) .*/\1/p' "$log")
[ -n "$retired" ] || fail "vsim printed no retired= total"
sum=$(awk -F, 'NR == 1 { for (i = 1; i <= NF; i++) if ($i == "retired") c = i; next }
	c { s += $c } END { if (c) printf "%d", s }' "$dir/m.csv")
[ "$sum" = "$retired" ] || fail "retired column sums to '$sum', vsim retired=$retired"
"$dir/vsim" -bench compress -model great -scale 1 -metrics-out "$dir/m.json" \
	-metrics-interval 50 -metrics-cap 8 >"$log" 2>&1 || fail "vsim -metrics-out m.json"
if command -v jq >/dev/null 2>&1; then
	jq -e '.header[0] == "cycle" and (.rows | length) > 0' "$dir/m.json" >/dev/null ||
		fail "m.json is not a metrics table: $(head -c 300 "$dir/m.json")"
elif command -v python3 >/dev/null 2>&1; then
	python3 -c 'import json, sys; t = json.load(open(sys.argv[1])); assert t["header"][0] == "cycle" and t["rows"]' \
		"$dir/m.json" || fail "m.json is not a metrics table: $(head -c 300 "$dir/m.json")"
else
	fail "neither jq nor python3 is available to parse m.json"
fi
echo "serve_smoke: vsim table reconciles (retired=$retired) and m.json parses"

"$bin" -quick -fig3 -serve 127.0.0.1:0 >"$log" 2>&1 &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT INT TERM

# The sweep prints its bound address on startup; wait for it.
addr=
i=0
while [ $i -lt 100 ]; do
	addr=$(sed -n 's|^serving observability on http://\([^ ]*\).*|\1|p' "$log")
	[ -n "$addr" ] && break
	kill -0 "$pid" 2>/dev/null || fail "vsweep exited before serving"
	sleep 0.1
	i=$((i + 1))
done
[ -n "$addr" ] || fail "no 'serving observability' line within 10s"
echo "serve_smoke: server at http://$addr"

health=$(curl -fsS "http://$addr/healthz") || fail "/healthz unreachable"
[ "$health" = "ok" ] || fail "/healthz said '$health', want 'ok'"

curl -fsS "http://$addr/readyz" >/dev/null || fail "/readyz not 200"

metrics=$(curl -fsS "http://$addr/metrics") || fail "/metrics unreachable"
for want in \
	valuespec_retired_total \
	valuespec_sweep_specs_total \
	'valuespec_sweep_spec_cycles_bucket{le="+Inf"}'; do
	case $metrics in
	*"$want"*) ;;
	*) fail "/metrics missing '$want'" ;;
	esac
done

curl -fsS "http://$addr/progress" | grep -q '"specs_total"' ||
	fail "/progress missing specs_total"

curl -fsS "http://$addr/buildz" >"$dir/buildz.json" || fail "/buildz unreachable"
grep -q '"go_version": "go' "$dir/buildz.json" ||
	fail "/buildz missing go_version: $(cat "$dir/buildz.json")"

# The middleware feeds its own scrapes back into the exposition.
curl -fsS "http://$addr/metrics" | grep -q '^valuespec_http_request_us_metrics_count' ||
	fail "/metrics missing http middleware latency histogram"

# Live time-series endpoint: a backfill snapshot with at least the sweep's
# retired-instructions series. The tracker samples on the stream interval,
# so poll until the first tick has landed.
series=
i=0
while [ $i -lt 100 ]; do
	series=$(curl -fsS "http://$addr/series") || fail "/series unreachable"
	case $series in
	*'"retired"'*) break ;;
	esac
	kill -0 "$pid" 2>/dev/null || break
	sleep 0.1
	i=$((i + 1))
done
case $series in
*'"type": "backfill"'* | *'"type":"backfill"'*) ;;
*) fail "/series missing backfill type: $series" ;;
esac
case $series in
*'"retired"'*) ;;
*) fail "/series missing retired series within 10s: $series" ;;
esac

# The dashboard page must be self-contained HTML wired to the SSE stream.
dash=$(curl -fsS "http://$addr/dash") || fail "/dash unreachable"
case $dash in
*'<!DOCTYPE html>'*) ;;
*) fail "/dash not an HTML page" ;;
esac
case $dash in
*'series/stream'*) ;;
*) fail "/dash not wired to series/stream" ;;
esac

# Let the sweep finish so the final summary path runs too.
wait "$pid" || fail "vsweep exited nonzero"
trap - EXIT INT TERM
grep -q "Sweep progress summary" "$log" || fail "no final progress summary"
echo "serve_smoke: OK (/healthz /readyz /metrics /progress /series /dash + summary)"
