#!/usr/bin/env bash
# Builds the benchmark from source (release, offline) and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run under the benchmark contract; the last stdout line is the
#       result object
#   benchmark/run.sh [--seed <n>] [--check]
#       the whole series, one process at a time -> benchmark/out/result.json
#   benchmark/run.sh compare <a.json> <b.json>
#
# Fails (non-zero, nothing on stdout) when the repo's crates are not next
# to this directory: there is then nothing to measure.
set -euo pipefail

dir=$(dirname "${BASH_SOURCE[0]}")
target=${CARGO_TARGET_DIR:-$dir/target}

# Cargo's own progress goes to stderr; stdout stays the benchmark's.
CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
    --manifest-path "$dir/Cargo.toml" >&2

exec "$target/release/benchmark" --dir "$dir" "$@"
