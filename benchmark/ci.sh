#!/usr/bin/env bash
# What CI should run for the benchmark (a later PR can call this from
# .github/workflows/ci.yml): the package's unit tests, then the smoke
# series, which takes every code path (all five workloads, end-to-end and
# traced, the trace cross-check, the probes) in well under a minute.
set -euo pipefail

dir=$(dirname "${BASH_SOURCE[0]}")
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$dir/target}

cargo test --offline --quiet --manifest-path "$dir/Cargo.toml"
"$dir/run.sh" --check
