#!/bin/sh
# Smoke-test the simulation job service end-to-end: stage a job on a vserved
# daemon with no workers, kill the daemon, restart it with workers and watch
# the job recover and complete (durability), re-submit the same spec and
# require a dedup hit answered from the result store, then run a real
# vsweep -submit sweep as one job and diff its CSV and JSON files and its
# spec report against a locally simulated run (byte-identical results), and
# check that a sweep holding a closure spec is refused before any job is
# created. Nonzero exit on any failure.
#
# Usage: scripts/jobs_smoke.sh [workdir]
set -eu

dir=${1:-$(mktemp -d)}
mkdir -p "$dir"
log="$dir/vserved.log"
data="$dir/data"
served="$dir/vserved"
sweep="$dir/vsweep"
pid=

fail() {
	echo "jobs_smoke: FAIL: $*" >&2
	echo "jobs_smoke: ---- daemon log ----" >&2
	cat "$log" >&2 || true
	exit 1
}

# start_daemon <workers>: launch vserved on an ephemeral port against $data
# and set $addr from its serving line, polling against a wall-clock deadline
# (not a fixed iteration count, which conflates slow hosts with hangs).
start_daemon() {
	"$served" -addr 127.0.0.1:0 -data "$data" -workers "$1" >"$log" 2>&1 &
	pid=$!
	addr=
	deadline=$(($(date +%s) + 30))
	while [ -z "$addr" ]; do
		addr=$(sed -n 's|^serving jobs on http://\([^ ]*\).*|\1|p' "$log")
		[ -n "$addr" ] && break
		kill -0 "$pid" 2>/dev/null || fail "vserved exited before serving"
		[ "$(date +%s)" -lt "$deadline" ] || fail "no 'serving jobs' line within 30s"
		sleep 0.1
	done
}

# wait_terminal <id> <outfile> <deadline-epoch>: poll GET /jobs/<id> until the
# job settles; fails on failed/canceled or deadline. Leaves $state set.
wait_terminal() {
	wid=$1
	wout=$2
	wdeadline=$3
	state=
	while :; do
		curl -fsS "http://$addr/jobs/$wid" >"$wout" || fail "GET /jobs/$wid unreachable"
		state=$(sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' "$wout" | head -1)
		case $state in
		done) return 0 ;;
		failed | canceled) fail "$wid finished $state: $(cat "$wout")" ;;
		esac
		[ "$(date +%s)" -lt "$wdeadline" ] || fail "$wid not done before the deadline (state '$state')"
		sleep 0.2
	done
}

stop_daemon() {
	kill "$pid" 2>/dev/null || true
	wait "$pid" 2>/dev/null || true
	pid=
}

go build -o "$served" ./cmd/vserved
go build -o "$sweep" ./cmd/vsweep
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null || true' EXIT INT TERM

# --- durability: stage a job with zero workers, restart with workers ------
start_daemon 0
echo "jobs_smoke: daemon (stage-only) at http://$addr"

req='{"name":"smoke","specs":[{"workload":"compress","scale":2}]}'
code=$(curl -s -o "$dir/submit.json" -w '%{http_code}' \
	-X POST -H 'Content-Type: application/json' -d "$req" "http://$addr/jobs") ||
	fail "POST /jobs unreachable"
[ "$code" = "202" ] || fail "POST /jobs = HTTP $code, want 202 (body: $(cat "$dir/submit.json"))"
id=$(sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p' "$dir/submit.json" | head -1)
[ -n "$id" ] || fail "no job id in $(cat "$dir/submit.json")"
grep -q '"state": "queued"' "$dir/submit.json" ||
	fail "staged job not queued: $(cat "$dir/submit.json")"

stop_daemon
echo "jobs_smoke: daemon killed with $id pending; restarting with workers"

start_daemon 2
wait_terminal "$id" "$dir/job.json" $(($(date +%s) + 120))
echo "jobs_smoke: $id recovered and completed after restart"

curl -fsS "http://$addr/jobs/$id/result" | grep -q '"stats"' ||
	fail "result JSON missing stats"
curl -fsS "http://$addr/jobs/$id/result?format=csv" | head -1 |
	grep -q '^workload,scale,config' || fail "result CSV missing header"

# --- dedup: the same spec again is answered from the result store ---------
code=$(curl -s -o "$dir/dup.json" -w '%{http_code}' \
	-X POST -H 'Content-Type: application/json' -d "$req" "http://$addr/jobs") ||
	fail "duplicate POST unreachable"
[ "$code" = "200" ] || fail "duplicate POST = HTTP $code, want 200 (body: $(cat "$dir/dup.json"))"
grep -q '"deduped": true' "$dir/dup.json" ||
	fail "duplicate submit not deduped: $(cat "$dir/dup.json")"
curl -fsS "http://$addr/metrics" | grep '^valuespec_jobs_dedup_hits_total' |
	grep -qv ' 0$' || fail "/metrics jobs_dedup_hits_total did not increment"
echo "jobs_smoke: duplicate submit deduped from the result store"

# --- tracing: a fresh job leaves a complete submit->store span timeline ---
# (the recovered job predates this daemon's in-memory span ring, so a newly
# submitted spec is the one that must carry the full lifecycle)
treq='{"name":"smoke-trace","specs":[{"workload":"compress","scale":3}]}'
code=$(curl -s -o "$dir/trace_submit.json" -w '%{http_code}' \
	-X POST -H 'Content-Type: application/json' -d "$treq" "http://$addr/jobs") ||
	fail "trace POST /jobs unreachable"
[ "$code" = "202" ] || fail "trace POST /jobs = HTTP $code (body: $(cat "$dir/trace_submit.json"))"
tid=$(sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p' "$dir/trace_submit.json" | head -1)
[ -n "$tid" ] || fail "no job id in $(cat "$dir/trace_submit.json")"
wait_terminal "$tid" "$dir/trace_job.json" $(($(date +%s) + 120))
# The terminal job span lands moments after the state flips; poll briefly.
deadline=$(($(date +%s) + 15))
while :; do
	curl -fsS "http://$addr/jobs/$tid/trace" >"$dir/trace.json" ||
		fail "GET /jobs/$tid/trace unreachable"
	grep -q '"name": "job"' "$dir/trace.json" && break
	[ "$(date +%s)" -lt "$deadline" ] || break
	sleep 0.25
done
for span in submit queue_wait run store job; do
	grep -q "\"name\": \"$span\"" "$dir/trace.json" ||
		fail "trace timeline missing '$span' span: $(cat "$dir/trace.json")"
done
grep -q "\"spec_hash\"" "$dir/trace.json" || fail "trace spans missing spec_hash attr"
curl -fsS "http://$addr/jobs/$tid/trace?format=chrome" | grep -q '"traceEvents"' ||
	fail "chrome trace export missing traceEvents"
curl -fsS "http://$addr/trace?track=$tid" | grep -q '"traceEvents"' ||
	fail "whole-service /trace export missing traceEvents"
curl -fsS "http://$addr/metrics" | grep -q '^valuespec_jobs_e2e_ms_count' ||
	fail "/metrics missing jobs_e2e_ms histogram"
echo "jobs_smoke: $tid has a complete submit->store->job span timeline"

# --- equivalence: a remote run matches a local one, as one job -----------
# Fig. 4's specs are all among Fig. 3's and the verification ablation shares
# its base runs, so the run's distinct specs travel as one request.
run_args="-fig3 -fig4 -verification -quick -scale 2 -spec-report"
"$sweep" $run_args -out "$dir/local" >"$dir/local.log" 2>&1 ||
	fail "local vsweep run failed: $(cat "$dir/local.log")"
"$sweep" $run_args -submit "http://$addr" -out "$dir/remote" >"$dir/remote.log" 2>&1 ||
	fail "vsweep -submit run failed: $(cat "$dir/remote.log")"
[ "$(ls "$dir/local")" = "$(ls "$dir/remote")" ] ||
	fail "remote -out files ($(ls "$dir/remote" | tr '\n' ' ')) differ from local ($(ls "$dir/local" | tr '\n' ' '))"
for f in "$dir"/local/*.csv "$dir"/local/*.json; do
	cmp -s "$f" "$dir/remote/${f##*/}" || fail "remote ${f##*/} differs from the local run"
done
report() { sed -n '/^== Speculation-outcome breakdown/,$p' "$1"; }
[ -n "$(report "$dir/local.log")" ] || fail "local run printed no spec report"
[ "$(report "$dir/local.log")" = "$(report "$dir/remote.log")" ] ||
	fail "remote spec report differs from the local run: $(report "$dir/remote.log")"
n=$(grep -c '^submitted ' "$dir/remote.log" || true)
[ "$n" = 1 ] || fail "vsweep -submit submitted $n jobs, want 1: $(grep '^submitted ' "$dir/remote.log")"
echo "jobs_smoke: vsweep -submit ran as one job; files and spec report byte-identical to the local run"

# --- refusal: a closure spec refuses the run before any job exists --------
jobs_total() { curl -fsS "http://$addr/jobs?view=summary" | sed -n 's/.*"total": \([0-9]*\).*/\1/p'; }
before=$(jobs_total)
if "$sweep" -predictors -quick -scale 2 -submit "http://$addr" >"$dir/refused.log" 2>&1; then
	fail "vsweep -predictors -submit succeeded, want a refusal: $(cat "$dir/refused.log")"
fi
grep -q 'cannot be serialized' "$dir/refused.log" ||
	fail "refusal does not name the spec: $(cat "$dir/refused.log")"
[ "$(jobs_total)" = "$before" ] || fail "refused run created a job ($before jobs before, $(jobs_total) after)"
echo "jobs_smoke: vsweep -predictors -submit refused before creating a job"

stop_daemon
trap - EXIT INT TERM
echo "jobs_smoke: OK (durable restart + dedup + span timeline + remote/local equivalence + refusal)"
