#!/usr/bin/env bash
# Measures a base revision against the working tree and applies the
# decision rule to every workload and end-to-end metric:
#
#   benchmark/ab.sh <rev> [pairs] [workload...]
#
# <rev> is exported with `git archive` into target/ktbench-ab/base and
# given this tree's benchmark, so both sides are measured by identical
# benchmark code and settings. Each side is built with --workspace into
# its own target directory. Then <pairs> (default 10) seeded pairs run per
# workload, alternating which side goes first, each for run_seconds of
# BENCHMARK.json; `ktbench compare` prints medians, quartiles, win
# fractions and verdicts, and exits non-zero on a regression.
set -euo pipefail
cd "$(dirname "$0")/.."

rev=${1:?usage: benchmark/ab.sh <rev> [pairs] [workload...]}
pairs=${2:-10}
shift $(($# < 2 ? $# : 2))
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
    workloads=(hit-small hit-large hit-wide cold app-run)
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)

ab=target/ktbench-ab
rm -rf "$ab/base"
mkdir -p "$ab/base"
git archive "$rev" | tar -x -C "$ab/base"
rm -rf "$ab/base/benchmark" "$ab/base/BENCHMARK.json"
git ls-files --cached --others --exclude-standard BENCHMARK.json benchmark \
    | tar -c -T - | tar -x -C "$ab/base"

build() { # <root> <target dir>
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet --workspace \
        && CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
            --manifest-path benchmark/Cargo.toml) >&2
}
echo "== building $rev and the working tree ==" >&2
build "$ab/base" "$PWD/$ab/base-target"
build . "$PWD/target"

runs="$ab/runs.jsonl"
log="$PWD/$ab/stderr.log"
: >"$runs"
: >"$log"
run_side() { # <side> <workload> <seed>
    local side=$1 root=. target=$PWD/target line
    if [[ $side == parent ]]; then
        root=$ab/base target=$PWD/$ab/base-target
    fi
    line=$(cd "$root" && "$target/release/ktbench" run --workload "$2" --seed "$3" \
        --seconds "$seconds" 2>>"$log" | tail -n 1) \
        || { echo "error: $side run of $2 (seed $3) failed; see $log" >&2; exit 1; }
    printf '{"workload": "%s", "seed": %d, "side": "%s", "result": %s}\n' \
        "$2" "$3" "$side" "$line" >>"$runs"
}
for ((i = 1; i <= pairs; i++)); do
    for w in "${workloads[@]}"; do
        seed=$((1000 + i))
        echo "== pair $i/$pairs: $w (seed $seed) ==" >&2
        if ((i % 2)); then
            run_side parent "$w" "$seed"
            run_side change "$w" "$seed"
        else
            run_side change "$w" "$seed"
            run_side parent "$w" "$seed"
        fi
    done
done
target/release/ktbench compare "$runs" --bench BENCHMARK.json
