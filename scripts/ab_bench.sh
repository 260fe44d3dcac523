#!/usr/bin/env bash
# Alternates repo-benchmark runs between two checkouts and sums up each
# end-to-end metric the way the benchmark's gain rule reads it.
#
#   scripts/ab_bench.sh <parent-dir> <change-dir> <workload> [pairs] [seed] [flag ...]
#
# Runs `<dir>/benchmark/run.sh --workload <workload> --seed <seed> --trace 0`
# on each side `pairs` times (default 10, seed 1), the parent first in odd
# pairs and the change first in even ones; any further flags (`--check`,
# `--seconds 100`) go to every run. Each side builds into its own
# `<dir>/benchmark/target`, and run length is each checkout's declared
# `run_seconds` unless a flag says otherwise. Prints every run's result
# line, the failed share of operations on each side, and per metric each
# side's median and quartiles (as Python's `statistics.quantiles(n=4)`),
# the pairs the change wins (ties count for neither), the parent's
# interquartile range, and whether the gain rule holds: wins in at least
# nine tenths of the pairs, and medians further apart, in the better
# direction, than the parent's quartiles. Exits non-zero if a run fails.
set -euo pipefail

usage="usage: $0 <parent-dir> <change-dir> <workload> [pairs] [seed] [flag ...]"
[ $# -ge 3 ] || { echo "$usage" >&2; exit 2; }
parent=$1 change=$2 workload=$3
pairs=${4:-10} seed=${5:-1}
shift $(($# < 5 ? $# : 5))
[[ $pairs =~ ^[1-9][0-9]*$ && $seed =~ ^[0-9]+$ ]] || { echo "$usage" >&2; exit 2; }
for dir in "$parent" "$change"; do
    [ -f "$dir/benchmark/run.sh" ] || { echo "$dir: no benchmark/run.sh" >&2; exit 2; }
done

# Each checkout builds into its own benchmark/target, not a shared one.
unset CARGO_TARGET_DIR
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

run() { # <side> <pair> <dir> [flag ...]
    local side=$1 pair=$2 dir=$3
    shift 3
    if ! bash "$dir/benchmark/run.sh" --workload "$workload" --seed "$seed" \
        --trace 0 "$@" >"$work/out" 2>"$work/err"; then
        cat "$work/err" >&2
        echo "$side run $pair failed" >&2
        exit 1
    fi
    local line
    line=$(tail -n 1 "$work/out")
    echo "$side $pair $line" | tee -a "$work/runs"
}

for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then
        run parent "$pair" "$parent" "$@"
        run change "$pair" "$change" "$@"
    else
        run change "$pair" "$change" "$@"
        run parent "$pair" "$parent" "$@"
    fi
done

# Which way each metric improves, from the change's BENCHMARK.json.
awk -F'"' '/"name":/ { name = $4 } /"better":/ { print name, $4 }' \
    "$change/BENCHMARK.json" >"$work/better"

awk -v pairs="$pairs" '
    FNR == NR { better[$1] = $2; next }
    {
        side = $1; pair = $2; line = $0
        if (match(line, /"attempted": [0-9]+/))
            attempted[side] += substr(line, RSTART + 13, RLENGTH - 13)
        if (match(line, /"failed": [0-9]+/))
            failed[side] += substr(line, RSTART + 10, RLENGTH - 10)
        while (match(line, /"[A-Za-z0-9_.]+": \{"value": -?[0-9.]+([eE][-+]?[0-9]+)?/)) {
            field = substr(line, RSTART, RLENGTH)
            line = substr(line, RSTART + RLENGTH)
            split(field, part, "\"")
            name = part[2]
            sub(/.*"value": /, "", field)
            if (!(name in seen)) { seen[name] = 1; names[++count] = name }
            value[name, side, pair] = field + 0
            n[name, side]++
        }
    }
    # Sorts v[1..k] in place (insertion sort: k is a handful of pairs).
    function sort(v, k,    i, j, x) {
        for (i = 2; i <= k; i++) {
            x = v[i]
            for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
            v[j + 1] = x
        }
    }
    # Quartile q (1, 2 or 3) of sorted v[1..k], as statistics.quantiles(n=4).
    function quartile(v, k, q,    m, j, delta) {
        if (k == 1) return v[1]
        if (q == 2) return k % 2 ? v[(k + 1) / 2] : (v[k / 2] + v[k / 2 + 1]) / 2
        m = k + 1
        j = int(q * m / 4)
        if (j < 1) j = 1
        if (j > k - 1) j = k - 1
        delta = q * m - 4 * j
        return (v[j] * (4 - delta) + v[j + 1] * delta) / 4
    }
    function summary(name, side, stat,    v, k, p) {
        k = 0
        for (p = 1; p <= pairs; p++)
            if ((name, side, p) in value) v[++k] = value[name, side, p]
        sort(v, k)
        stat["q1"] = quartile(v, k, 1)
        stat["median"] = quartile(v, k, 2)
        stat["q3"] = quartile(v, k, 3)
    }
    END {
        printf "\nfailed operations: parent %d of %d, change %d of %d\n",
            failed["parent"], attempted["parent"], failed["change"], attempted["change"]
        printf "%-18s %-6s %-32s %-32s %-6s %-10s %s\n", "metric", "better",
            "parent median [q1, q3]", "change median [q1, q3]", "wins", "parent IQR", "gain"
        for (i = 1; i <= count; i++) {
            name = names[i]
            dir = (name in better) ? better[name] : "?"
            summary(name, "parent", a)
            summary(name, "change", b)
            wins = 0
            for (p = 1; p <= pairs; p++) {
                if (!((name, "parent", p) in value) || !((name, "change", p) in value)) continue
                d = value[name, "change", p] - value[name, "parent", p]
                if ((dir == "lower" && d < 0) || (dir == "higher" && d > 0)) wins++
            }
            iqr = a["q3"] - a["q1"]
            gap = dir == "lower" ? a["median"] - b["median"] : b["median"] - a["median"]
            gain = (dir != "?" && 10 * wins >= 9 * pairs && gap > iqr) ? "yes" : "no"
            printf "%-18s %-6s %-32s %-32s %-6s %-10.4g %s\n", name, dir,
                sprintf("%.4g [%.4g, %.4g]", a["median"], a["q1"], a["q3"]),
                sprintf("%.4g [%.4g, %.4g]", b["median"], b["q1"], b["q3"]),
                wins "/" pairs, iqr, gain
        }
    }
' "$work/better" "$work/runs"
