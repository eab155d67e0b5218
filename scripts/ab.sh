#!/usr/bin/env bash
# Paired A/B runs of benchmark workloads: the tree committed at <base-rev>
# against the working tree.
#
#   scripts/ab.sh <base-rev> <workload|all> [pairs] [seed]
#
# The base is exported with git archive into a temporary directory. Each
# pair runs both trees' own `bench/run.sh --workload W --seed S --seconds T
# --trace 0`, T being BENCHMARK.json's run_seconds, and alternates which
# side runs first. The last stdout line of a run is its JSON result. For
# every end-to-end metric the script prints each side's median and
# quartiles and how many pairs the change won, better being the direction
# BENCHMARK.json gives. The workload `all` runs every workload BENCHMARK.json
# lists, one after the other, and prints one such block per workload. The
# script exits non-zero if any run was not correct. pairs defaults to 10
# and seed to 1.
set -euo pipefail
if [ $# -lt 2 ] || [ $# -gt 4 ]; then
	echo "usage: $0 <base-rev> <workload|all> [pairs] [seed]" >&2
	exit 2
fi
base_rev=$1 pairs=${3:-10} seed=${4:-1}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$root/BENCHMARK.json")
if [ "$2" = all ]; then
	# The names inside BENCHMARK.json's "workloads" array, in its order.
	workloads=$(awk '/"workloads"/ { in_list = 1 } in_list && /"name"/ { sub(/.*"name": *"/, ""); sub(/".*/, ""); print }
		in_list && /^ *\]/ { exit }' "$root/BENCHMARK.json")
else
	workloads=$2
fi
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$root" archive "$base_rev" | tar -x -C "$work/base"

# run <workload> <side> <tree> <pair>
run() {
	bash "$3/bench/run.sh" --workload "$1" --seed "$seed" --seconds "$seconds" --trace 0 |
		tail -n 1 >"$work/$1/$2.$4.json"
}
status=0
for workload in $workloads; do
	mkdir "$work/$workload"
	for ((i = 0; i < pairs; i++)); do
		if ((i % 2 == 0)); then
			run "$workload" base "$work/base" "$i"
			run "$workload" change "$root" "$i"
		else
			run "$workload" change "$root" "$i"
			run "$workload" base "$work/base" "$i"
		fi
		echo "ab: $workload pair $((i + 1))/$pairs done" >&2
	done
	echo "$workload: $(git -C "$root" rev-parse --short "$base_rev") vs working tree, $pairs pairs, seed $seed, ${seconds} s a run"
	go run "$root/scripts/abstat.go" -spec "$root/BENCHMARK.json" -dir "$work/$workload" -pairs "$pairs" || status=1
done
exit $status
