#!/bin/sh
# The CI benchmark gate: this checkout's dpibench records against those
# of a base checkout, measured on the same machine in alternating runs.
#
#	.github/benchgate.sh BASE_DIR
#
# BASE_DIR is a checkout of the base commit (CI adds a git worktree of
# the merge base). Both trees' cmd/dpibench are built first. Each of
# nine rounds then runs the base, writing its report, and right after
# it the head with -baseline against that report, which prints every
# record's throughput delta. A record fails the gate when it is more
# than 15 % slower than the base in a majority of the rounds, i.e. when
# the median of its paired deltas is below -15 %; pairing adjacent runs
# cancels the machine's slow drift, and the majority a single noisy
# round. The gate also fails when a round finds no record to compare.
# The head's last report is left in BENCH_ci.json.
set -eu
base=$1
rounds=9
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/head" ./cmd/dpibench
(cd "$base" && go build -o "$bin/base" ./cmd/dpibench)
flags="-quick -corpus 1048576 -repeat 8 -trials 5"
exps="fig9a parallel lanes"
round=0
while [ "$round" -lt "$rounds" ]; do
	round=$((round + 1))
	echo "== round $round of $rounds"
	"$bin/base" $flags -json "$bin/base.json" $exps >/dev/null
	"$bin/head" $flags -json BENCH_ci.json -baseline "$bin/base.json" -regress 15 $exps >"$bin/out" 2>&1 || true
	sed -n '/^== Regression check/,$p' "$bin/out"
	if grep -q "no overlapping records" "$bin/out"; then
		exit 1
	fi
	# Rows of the comparison table: experiment, name, base, head, delta%.
	sed -n '/^== Regression check/,$p' "$bin/out" | awk 'NF == 5 && $5 ~ /%$/ { print $1 "/" $2, $5 + 0 }' >>"$bin/deltas"
done
awk -v rounds="$rounds" '
	$2 < -15 { slow[$1]++ }
	END {
		for (k in slow) {
			if (2 * slow[k] > rounds) {
				printf "benchgate: %s more than 15%% slower than the base in %d of %d rounds\n", k, slow[k], rounds
				bad = 1
			}
		}
		if (!bad) print "benchgate: no record more than 15% slower in a majority of rounds"
		exit bad
	}' "$bin/deltas"
