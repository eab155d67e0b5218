#!/usr/bin/env bash
# Paired A/B runs of one benchmark workload: the tree committed at
# <base-rev> against the working tree.
#
#   scripts/ab.sh <base-rev> <workload> [pairs] [seed]
#
# The base is exported with git archive into a temporary directory. Each
# pair runs both trees' own `bench/run.sh --workload W --seed S --seconds T
# --trace 0`, T being BENCHMARK.json's run_seconds, and alternates which
# side runs first. The last stdout line of a run is its JSON result. For
# every end-to-end metric the script prints each side's median and
# quartiles and how many pairs the change won, better being the direction
# BENCHMARK.json gives. It exits non-zero if any run was not correct.
# pairs defaults to 10 and seed to 1.
set -euo pipefail
if [ $# -lt 2 ] || [ $# -gt 4 ]; then
	echo "usage: $0 <base-rev> <workload> [pairs] [seed]" >&2
	exit 2
fi
base_rev=$1 workload=$2 pairs=${3:-10} seed=${4:-1}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$root/BENCHMARK.json")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$root" archive "$base_rev" | tar -x -C "$work/base"

# run <side> <tree> <pair>
run() {
	bash "$2/bench/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
		tail -n 1 >"$work/$1.$3.json"
}
for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		run base "$work/base" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run base "$work/base" "$i"
	fi
	echo "ab: pair $((i + 1))/$pairs done" >&2
done
echo "$workload: $(git -C "$root" rev-parse --short "$base_rev") vs working tree, $pairs pairs, seed $seed, ${seconds} s a run"
go run "$root/scripts/abstat.go" -spec "$root/BENCHMARK.json" -dir "$work" -pairs "$pairs"
