#!/bin/sh
# Compares this tree with a parent checkout on one perfbench workload, as
# alternating pairs of runs, and prints each end-to-end metric of
# BENCHMARK.json per side: median and quartiles, how many pairs the change
# won, and whether the gap between the medians exceeds the parent's
# interquartile range (IQR).
#
#   sh scripts/bench_pairs.sh PARENT_DIR WORKLOAD PAIRS [perfbench flags...]
#   sh scripts/bench_pairs.sh ../parent fig3_sweep 10 --seconds 1 --seed 1
#
# Each tree's perfbench is built and run through that tree's own
# perfbench/run.sh, each side under its own CARGO_TARGET_DIR in the work
# directory ($BENCH_PAIRS_WORK, else a fresh mktemp -d), where every run's
# output stays. Pair i runs the parent first when i is odd and the change
# first when it is even. Nothing under perfbench/ is written. The script
# exits 1 if any run fails, is not correct or reports failed checks, and 2
# on a usage error.
set -eu

usage() {
	echo "usage: sh scripts/bench_pairs.sh PARENT_DIR WORKLOAD PAIRS [perfbench flags...]" >&2
	exit 2
}
[ $# -ge 3 ] || usage
[ -f "$1/perfbench/run.sh" ] || { echo "bench_pairs: $1 has no perfbench/run.sh" >&2; exit 2; }
parent=$(cd "$1" && pwd)
workload=$2
pairs=$3
shift 3
case $pairs in '' | *[!0-9]* | 0) usage ;; esac
change=$(cd "$(dirname "$0")/.." && pwd)
work=${BENCH_PAIRS_WORK:-$(mktemp -d)}
mkdir -p "$work"
echo "bench_pairs: $pairs pairs of $workload $*"
echo "  parent $parent"
echo "  change $change"
echo "  runs in $work"

bad=0

# run SIDE TREE PAIR [flags...]: one perfbench run into $work/SIDE.PAIR.out;
# a failed, incorrect or checks-failing run sets bad.
run() {
	side=$1 tree=$2 pair=$3 out=$work/$1.$3.out
	shift 3
	if ! (cd "$tree" && CARGO_TARGET_DIR=$work/$side bash perfbench/run.sh \
		--workload "$workload" "$@") >"$out" 2>&1; then
		echo "bench_pairs: $side run of pair $pair failed, see $out" >&2
		bad=1
		return 0
	fi
	last=$(tail -n 1 "$out")
	case $last in
	*'"correct":true'*'"failed":0,'*) ;;
	*)
		echo "bench_pairs: $side run in $out is not correct or failed checks: $last" >&2
		bad=1
		;;
	esac
	if ! grep -q 'oracle self-test passed' "$out"; then
		echo "bench_pairs: $side run in $out did not pass the oracle self-test" >&2
		bad=1
	fi
}

i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$parent" "$i" "$@"
		run change "$change" "$i" "$@"
	else
		run change "$change" "$i" "$@"
		run parent "$parent" "$i" "$@"
	fi
	echo "  pair $i done"
	i=$((i + 1))
done

# value FILE METRIC: the metric's value on the run's final JSON line.
value() {
	tail -n 1 "$1" | sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p"
}

# Each end-to-end metric of BENCHMARK.json with its better direction.
metrics=$(awk '/"end_to_end"/ { on = 1; next }
	on && /\]/ { exit }
	on && /"name"/ {
		n = $0; sub(/.*"name": *"/, "", n); sub(/".*/, "", n)
		b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b)
		print n ":" b
	}' "$change/BENCHMARK.json")

for m in $metrics; do
	name=${m%%:*} better=${m#*:}
	i=1
	while [ "$i" -le "$pairs" ]; do
		echo "$i $(value "$work/parent.$i.out" "$name") $(value "$work/change.$i.out" "$name")"
		i=$((i + 1))
	done | awk -v name="$name" -v better="$better" '
	function sort(a, n,   i, j, t) {
		for (i = 2; i <= n; i++) {
			t = a[i]
			for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
			a[j + 1] = t
		}
	}
	# q returns quantile f of the sorted a[1..n], interpolating linearly.
	function q(a, n, f,   h, lo) {
		h = (n - 1) * f + 1; lo = int(h)
		return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
	}
	NF < 3 { missing++; next }
	{
		n++; p[n] = $2; c[n] = $3
		if (better == "lower" ? $3 < $2 : $3 > $2) wins++
		line = line sprintf(" %.6g/%.6g", $2, $3)
	}
	END {
		if (n == 0) { printf "%s: no values\n", name; exit }
		sort(p, n); sort(c, n)
		pm = q(p, n, .5); cm = q(c, n, .5); iqr = q(p, n, .75) - q(p, n, .25)
		gap = better == "lower" ? pm - cm : cm - pm
		printf "%s (%s is better)\n", name, better
		printf "  parent median %.6g [q1 %.6g, q3 %.6g]\n", pm, q(p, n, .25), q(p, n, .75)
		printf "  change median %.6g [q1 %.6g, q3 %.6g]\n", cm, q(c, n, .25), q(c, n, .75)
		verdict = gap > iqr ? "exceeds" : "does not exceed"
		printf "  change better in %d/%d pairs; median gap %.6g in its favour, parent IQR %.6g: %s\n",
			wins, n, gap, iqr, verdict
		printf "  pairs parent/change:%s\n", line
		if (missing) printf "  %d pairs without a value\n", missing
	}'
done

if [ "$bad" -ne 0 ]; then
	echo "bench_pairs: some runs failed or were not correct" >&2
	exit 1
fi
