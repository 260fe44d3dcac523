#!/usr/bin/env bash
# Alternates one registry grid between two checkouts and compares the user
# CPU time each run takes.
#
#   scripts/ab_grid.sh <parent-dir> <change-dir> <grid> [pairs] [profile]
#
# Builds `reunion-bench` (release) in each checkout's own `target/`, then
# runs `reunion-bench run <grid> --profile <profile> --threads 1` on each
# side `pairs` times (default 10, profile fast), the parent first in odd
# pairs and the change first in even ones. Every run works in a temporary
# directory, so no `BENCH_<id>.json` lands in either checkout. Prints each
# pair's user seconds and change/parent ratio, then the median ratio and the
# pairs the change wins (less user time; ties count for neither). Exits
# non-zero if a build or a run fails.
#
# User time resolves what the benchmark's wall-clock throughput cannot on a
# shared host: it leaves out time spent waiting for a CPU. Judge on many
# pairs (≥ 20), never on one.
set -euo pipefail

usage="usage: $0 <parent-dir> <change-dir> <grid> [pairs] [profile]"
[ $# -ge 3 ] && [ $# -le 5 ] || { echo "$usage" >&2; exit 2; }
parent=$1 change=$2 grid=$3
pairs=${4:-10} profile=${5:-fast}
[[ $pairs =~ ^[1-9][0-9]*$ ]] || { echo "$usage" >&2; exit 2; }
for dir in "$parent" "$change"; do
    [ -f "$dir/Cargo.toml" ] || { echo "$dir: no Cargo.toml" >&2; exit 2; }
done

# Each checkout builds into its own target/, not a shared one.
unset CARGO_TARGET_DIR
for dir in "$parent" "$change"; do
    (cd "$dir" && cargo build --release -q -p reunion-sim)
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

run() { # <dir>: prints the run's user seconds
    local bin
    bin=$(cd "$1" && pwd)/target/release/reunion-bench
    local TIMEFORMAT=%U
    (cd "$work" && time REUNION_OUT_DIR="$work" "$bin" run "$grid" \
        --profile "$profile" --threads 1 >"$work/out" 2>&1) 2>"$work/time" || {
        cat "$work/out" >&2
        echo "$1: run $grid failed" >&2
        exit 1
    }
    cat "$work/time"
}

echo "pair parent_user_s change_user_s ratio"
for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then
        p=$(run "$parent")
        c=$(run "$change")
    else
        c=$(run "$change")
        p=$(run "$parent")
    fi
    awk -v pair="$pair" -v p="$p" -v c="$c" \
        'BEGIN { printf "%d %.3f %.3f %.4f\n", pair, p, c, c / p }' | tee -a "$work/pairs"
done

sort -g -k4 "$work/pairs" | awk -v grid="$grid" -v profile="$profile" '
    { ratio[NR] = $4; if ($3 < $2) wins++ }
    END {
        median = NR % 2 ? ratio[(NR + 1) / 2] : (ratio[NR / 2] + ratio[NR / 2 + 1]) / 2
        printf "%s --profile %s: median change/parent user-time ratio %.4f; change wins %d/%d\n",
            grid, profile, median, wins, NR
    }'
