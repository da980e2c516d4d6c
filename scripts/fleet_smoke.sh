#!/bin/sh
# Smoke-test the distributed fleet runner end-to-end:
#
#   1. baseline: a local (in-process) quick Fig. 3 sweep;
#   2. fleet of 1: the same sweep submitted with -shard 3 to a pure
#      coordinator (-workers 0) drained by one "vserved -worker" (timed, T1);
#      every row of its remote breakdown shows the worker's nonzero Run;
#      then, with the worker idle, one Fig. 4 job must start within 250 ms
#      of its submission (its queue_wait span), because an idle worker waits
#      in a /lease the coordinator holds rather than in a poll sleep;
#   3. fleet of 3: three workers drain the sharded sweep, and one worker is
#      SIGKILLed while it holds a lease — the lease lapses, the coordinator
#      requeues, the survivors finish (timed, T3);
#   4. coordinator settings: a coordinator started with -telemetry, drained
#      by a worker started like the others (no execution flags), stores a
#      telemetry snapshot with every spec of a small job, because each lease
#      carries the coordinator's settings;
#   5. gates: all three sweep legs' fig3.csv byte-identical (deterministic
#      simulation, exactly-once results); the kill leg's lease-expiration
#      counter is >= 1 (the requeue really happened); and on hosts with >= 4
#      CPUs, T1/T3 >= 2 (near-linear fleet speedup; report-only on smaller
#      hosts, where the workers would just time-slice one core).
#
# Nonzero exit on any failure. Usage: scripts/fleet_smoke.sh [workdir]
set -eu

dir=${1:-$(mktemp -d)}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
scale=${FLEET_SMOKE_SCALE:-5}
served="$dir/vserved"
sweep="$dir/vsweep"
pid=
wpids=

fail() {
	echo "fleet_smoke: FAIL: $*" >&2
	for f in "$dir"/daemon*.log "$dir"/worker*.log "$dir"/sweep*.log; do
		[ -f "$f" ] && { echo "fleet_smoke: ---- $f ----" >&2; tail -30 "$f" >&2; }
	done
	exit 1
}

cleanup() {
	for p in $wpids $pid; do kill -9 "$p" 2>/dev/null || true; done
	wpids=
	pid=
}
trap cleanup EXIT INT TERM

# start_daemon <data-dir> <log> [flag...]: pure coordinator (-workers 0) on
# an ephemeral port with a short lease TTL, plus any extra flags; sets $addr
# from its serving line.
start_daemon() {
	ddata=$1
	dlog=$2
	shift 2
	"$served" -addr 127.0.0.1:0 -data "$ddata" -workers 0 -lease-ttl 2s "$@" >"$dlog" 2>&1 &
	pid=$!
	addr=
	deadline=$(($(date +%s) + 30))
	while [ -z "$addr" ]; do
		addr=$(sed -n 's|^serving jobs on http://\([^ ]*\).*|\1|p' "$dlog")
		[ -n "$addr" ] && break
		kill -0 "$pid" 2>/dev/null || fail "vserved exited before serving ($dlog)"
		[ "$(date +%s)" -lt "$deadline" ] || fail "no 'serving jobs' line within 30s ($dlog)"
		sleep 0.1
	done
}

# start_worker <id> <log>: one stateless fleet worker; appends its pid to
# $wpids and echoes it.
start_worker() {
	"$served" -worker -coordinator "http://$addr" -worker-id "$1" -capacity 1 >"$2" 2>&1 &
	wp=$!
	wpids="$wpids $wp"
	deadline=$(($(date +%s) + 30))
	while ! grep -q "^worker $1 serving coordinator" "$2" 2>/dev/null; do
		kill -0 "$wp" 2>/dev/null || fail "worker $1 exited before serving ($2)"
		[ "$(date +%s)" -lt "$deadline" ] || fail "worker $1 printed no identity line within 30s"
		sleep 0.1
	done
	echo "$wp"
}

stop_all() {
	cleanup
	trap cleanup EXIT INT TERM
}

# worker_holds_lease <id>: true when the /fleet snapshot shows that worker
# holding at least one lease (its row carries a "leased" array).
worker_holds_lease() {
	j=$(curl -fsS "http://$addr/fleet" 2>/dev/null | tr -d ' \n\t') || return 1
	rest=${j#*\"id\":\"$1\"}
	[ "$rest" != "$j" ] || return 1
	row=${rest%%\"id\":*}
	case $row in *\"leased\":\[\"j*) return 0 ;; esac
	return 1
}

# metric <name>: one counter's value from the Prometheus exposition.
metric() {
	curl -fsS "http://$addr/metrics" | awk -v m="$1" '$1 == m { print $2 }'
}

go build -o "$served" ./cmd/vserved
go build -o "$sweep" ./cmd/vsweep

# --- 1. baseline: local in-process sweep -----------------------------------
echo "fleet_smoke: local baseline sweep (fig3 -quick -scale $scale)"
"$sweep" -fig3 -quick -scale "$scale" -out "$dir/local" >"$dir/sweep-local.log" 2>&1 ||
	fail "local sweep failed"
[ -s "$dir/local/fig3.csv" ] || fail "local sweep wrote no fig3.csv"

# --- 2. fleet of 1: sharded sweep drained by a single worker (T1) ----------
echo "fleet_smoke: fleet of 1 (coordinator -workers 0, -shard 3)"
start_daemon "$dir/data1" "$dir/daemon1.log"
start_worker fw1 "$dir/worker1.log" >/dev/null
t0=$(date +%s)
"$sweep" -fig3 -quick -scale "$scale" -submit "http://$addr" -shard 3 \
	-out "$dir/fleet1" >"$dir/sweep-fleet1.log" 2>&1 ||
	fail "fleet-of-1 sweep failed"
t1=$(($(date +%s) - t0))
cmp -s "$dir/local/fig3.csv" "$dir/fleet1/fig3.csv" ||
	fail "fleet-of-1 fig3.csv differs from the local run"
echo "fleet_smoke: fleet of 1 matched the local run byte-for-byte (T1=${t1}s)"
# Each job the worker ran carries its run span: no row reads Run 0s or -.
breakdown=$(sed -n '/^== Remote job breakdown/,$p' "$dir/sweep-fleet1.log")
runs=$(echo "$breakdown" | awk '{ for (i = 1; i <= NF; i++) if ($i ~ /^j[0-9]+$/) print $(i + 3) }')
[ -n "$runs" ] || fail "fleet-of-1 sweep printed no remote breakdown rows"
for r in $runs; do
	case $r in 0s | -) fail "fleet-of-1 remote breakdown shows Run $r: $breakdown" ;; esac
done
echo "fleet_smoke: every fleet-of-1 breakdown row shows the worker's run ($(echo $runs))"

# The worker is idle now, parked in a held /lease: one more job must start
# within a round trip, not after a poll period.
"$sweep" -fig4 -quick -scale 1 -submit "http://$addr" -out "$dir/idle" >"$dir/sweep-idle.log" 2>&1 ||
	fail "idle-fleet sweep failed"
id=$(sed -n 's/^submitted .* as job \(j[0-9]*\) .*/\1/p' "$dir/sweep-idle.log")
[ -n "$id" ] || fail "idle-fleet sweep printed no job id: $(cat "$dir/sweep-idle.log")"
qw=$(curl -fsS "http://$addr/jobs/$id/trace" |
	awk '/"name": "queue_wait"/ { q = 1 } q && /"duration_ms":/ { sub(/,$/, "", $2); print $2; exit }')
[ -n "$qw" ] || fail "job $id has no queue_wait span"
awk -v q="$qw" 'BEGIN { exit !(q < 250) }' ||
	fail "job $id sent to an idle worker waited ${qw}ms in the queue, want < 250ms"
echo "fleet_smoke: a job sent to the idle worker waited ${qw}ms in the queue (< 250ms)"
stop_all

# --- 3. fleet of 3, one worker SIGKILLed while holding a lease (T3) --------
echo "fleet_smoke: fleet of 3 with a mid-sweep worker SIGKILL"
start_daemon "$dir/data3" "$dir/daemon3.log"
w1=$(start_worker fw1 "$dir/worker3a.log")
start_worker fw2 "$dir/worker3b.log" >/dev/null
start_worker fw3 "$dir/worker3c.log" >/dev/null
t0=$(date +%s)
"$sweep" -fig3 -quick -scale "$scale" -submit "http://$addr" -shard 3 \
	-out "$dir/fleet3" >"$dir/sweep-fleet3.log" 2>&1 &
sweeppid=$!
# Wait until fw1 actually holds a lease, then SIGKILL it: the lease must
# lapse (2s TTL), the coordinator must requeue, and a survivor must rerun
# the shard to the same bytes.
deadline=$(($(date +%s) + 60))
while ! worker_holds_lease fw1; do
	kill -0 "$sweeppid" 2>/dev/null || fail "sweep finished before fw1 ever held a lease"
	[ "$(date +%s)" -lt "$deadline" ] || fail "fw1 never held a lease within 60s"
	sleep 0.1
done
kill -9 "$w1" 2>/dev/null || fail "could not SIGKILL worker fw1"
echo "fleet_smoke: SIGKILLed worker fw1 (pid $w1) while it held a lease"
wait "$sweeppid" || fail "fleet-of-3 sweep failed after the worker kill"
t3=$(($(date +%s) - t0))
cmp -s "$dir/local/fig3.csv" "$dir/fleet3/fig3.csv" ||
	fail "fleet-of-3 fig3.csv differs from the local run after the worker kill"

expired=$(metric valuespec_fleet_lease_expirations_total)
[ -n "$expired" ] || fail "no fleet.lease_expirations counter in /metrics"
[ "$expired" -ge 1 ] 2>/dev/null || fail "lease_expirations = $expired, want >= 1 (no requeue happened)"
echo "fleet_smoke: coordinator requeued $expired lapsed lease(s); results stayed byte-identical (T3=${t3}s)"
stop_all

# --- 4. the coordinator's settings reach a worker that sets none -----------
echo "fleet_smoke: a -telemetry coordinator drained by a worker with no execution flags"
start_daemon "$dir/datat" "$dir/daemont.log" -telemetry
start_worker fwt "$dir/workert.log" >/dev/null
req='{"name":"telemetry","specs":[{"workload":"compress","scale":1},{"workload":"xlisp","scale":1}]}'
id=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$req" "http://$addr/jobs" |
	sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p' | head -1)
[ -n "$id" ] || fail "the telemetry job was not accepted"
deadline=$(($(date +%s) + 60))
state=
while [ "$state" != done ]; do
	state=$(curl -fsS "http://$addr/jobs/$id" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' | head -1)
	case $state in failed | canceled) fail "telemetry job $id finished $state" ;; esac
	[ "$(date +%s)" -lt "$deadline" ] || fail "telemetry job $id not done within 60s (state '$state')"
	sleep 0.2
done
curl -fsS "http://$addr/jobs/$id/result" >"$dir/telemetry.json" || fail "GET /jobs/$id/result failed"
snaps=$(grep -c '"telemetry": {' "$dir/telemetry.json" || true)
[ "$snaps" -eq 2 ] ||
	fail "job $id stored $snaps telemetry snapshots, want one per spec (2): the worker ignored the coordinator's -telemetry"
echo "fleet_smoke: the worker sampled telemetry for both specs under the coordinator's -telemetry"
stop_all

# --- 5. speedup gate (adaptive: enforced only with >= 4 CPUs) --------------
ncpu=$(nproc 2>/dev/null || echo 1)
speedup=$(awk -v a="$t1" -v b="$t3" 'BEGIN { if (b < 1) b = 1; printf "%.2f", a / b }')
if [ "$ncpu" -ge 4 ]; then
	awk -v s="$speedup" 'BEGIN { exit !(s >= 2.0) }' ||
		fail "fleet of 3 only ${speedup}x faster than fleet of 1 (want >= 2x on $ncpu CPUs)"
	echo "fleet_smoke: fleet of 3 is ${speedup}x faster than fleet of 1 ($ncpu CPUs)"
else
	echo "fleet_smoke: speedup T1/T3 = ${speedup}x (report-only: $ncpu CPU(s), workers time-slice one core)"
fi

echo "fleet_smoke: OK (byte-identical across legs + idle start + requeue after worker SIGKILL + coordinator settings)"
