#!/bin/bash
# Interleaved A/B of one bench workload: a parent revision against the
# working tree, the procedure EXPERIMENTS.md's tables come from.
#
#   scripts/ab.sh PARENT_REV WORKLOAD [PAIRS] [SEED] [bench flags...]
#   scripts/ab.sh HEAD~1 epoch_uniform               ten pairs, seed 1
#   scripts/ab.sh 99b9d7a fail_recache 4 7 -seconds 6
#   PAIRS=1 scripts/ab.sh HEAD epoch_uniform -seconds 2
#
# The parent's committed files are unpacked into a throw-away directory
# (under $TMPDIR, removed on exit). Each side is built once, the way
# bench/run.sh builds it — binary and Go build cache inside its own
# checkout — and then run PAIRS times with -trace 0, the two sides
# alternating which goes first, so neither a build nor a drift of the
# machine lands on one side only. Every run is printed as it finishes;
# at the end each end-to-end metric gets parent and change as
# median [q1, q3], the change's median relative to the parent's, and
# the pairs the change won (BENCHMARK.json says which direction wins).
set -eu

if [ $# -lt 2 ]; then
	sed -n '2,9p' "$0" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=${PAIRS:-10} seed=${SEED:-1}
shift 2
case ${1:-} in [0-9]*) pairs=$1 && shift ;; esac
case ${1:-} in [0-9]*) seed=$1 && shift ;; esac

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"

build() (
	cd "$1"
	mkdir -p .bench_build
	GOCACHE="$PWD/.bench_build/go-cache" GOTOOLCHAIN=local go build -o .bench_build/bench ./bench
)
# run SIDE DIR: one untraced run; its metric lines go to the log, tagged.
run() {
	local side=$1 dir=$2 out
	shift 2
	out=$(cd "$dir" && .bench_build/bench -workload "$workload" -trace 0 -seed "$seed" "$@")
	echo "$out" | awk -v pair="$pair" -v side="$side" -v w="$workload" \
		'$1 == w && NF == 4 { print pair, side, $2, $3 }' >>"$tmp/log"
	echo "$out" | tail -n 1 | sed "s/^/pair $pair $side: /"
}

echo "parent $(git -C "$root" rev-parse --short "$rev") vs working tree, $workload, seed $seed, $pairs pairs $*"
build "$tmp/parent"
build "$root"
for pair in $(seq 1 "$pairs"); do
	if [ $((pair % 2)) -eq 1 ]; then
		run parent "$tmp/parent" "$@"
		run change "$root" "$@"
	else
		run change "$root" "$@"
		run parent "$tmp/parent" "$@"
	fi
done

# Summary. The first file is BENCHMARK.json, pretty-printed: a metric's
# "better" follows its "name". The second is the log of pair/side/metric/value.
awk '
function q(a, n, p,    i) { i = int(p * n + 0.999999); if (i < 1) i = 1; if (i > n) i = n; return a[i] }
function med(a, n) { return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
function summary(m, side,    n, i, a) {
	n = 0
	for (i = 1; i <= pairs; i++) if ((i, side, m) in v) a[++n] = v[i, side, m]
	asort_(a, n)
	mid[side] = med(a, n)
	return sprintf("%.6g [%.6g, %.6g]", mid[side], q(a, n, 0.25), q(a, n, 0.75))
}
function asort_(a, n,    i, j, t) { for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t } }
FNR == NR {
	if ($1 == "\"name\":") { gsub(/[",]/, "", $2); name = $2 }
	if ($1 == "\"better\":") { gsub(/[",]/, "", $2); better[name] = $2 }
	next
}
{ v[$1, $2, $3] = $4; if ($1 > pairs) pairs = $1; if (!($3 in seen)) { seen[$3] = 1; order[++metrics] = $3 } }
END {
	printf "%-16s %-34s %-34s %9s %7s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins"
	for (k = 1; k <= metrics; k++) {
		m = order[k]; wins = 0
		for (i = 1; i <= pairs; i++) {
			d = v[i, "change", m] - v[i, "parent", m]
			if ((better[m] == "higher" && d > 0) || (better[m] == "lower" && d < 0)) wins++
		}
		p = summary(m, "parent"); c = summary(m, "change")
		rel = mid["parent"] ? sprintf("%+.1f %%", 100 * (mid["change"] / mid["parent"] - 1)) : "n/a"
		printf "%-16s %-34s %-34s %9s %4d/%d\n", m, p, c, rel, wins, pairs
	}
}' "$root/BENCHMARK.json" "$tmp/log"
