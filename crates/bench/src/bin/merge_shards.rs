//! Combines shard manifests back into `BENCH_<id>.json` artifacts.
//!
//! The second half of a sharded campaign: after every shard of a grid has
//! run (`reunion-bench run <id> --shard i/N`, on any mix of machines),
//! collect the `MANIFEST_<id>.shard<i>of<N>.jsonl` files into one directory
//! and merge them:
//!
//! ```text
//! merge_shards <manifest_dir>
//! ```
//!
//! Every complete manifest group found under `<manifest_dir>` is merged
//! into a `BENCH_<id>.json` under `$REUNION_OUT_DIR` (default: the current
//! directory) — byte-identical to the file a single-process run of the
//! same grid and profile would have written, so the merged artifact goes
//! through the same `cmp` against `baselines/`. An incomplete partition
//! (missing shards, or an interrupted shard that was never resumed to
//! completion) fails with the uncovered cell indices so the operator knows
//! what to (re)run.

use std::path::Path;
use std::process::ExitCode;

use reunion_sim::{find_manifests, merge_manifests, RunOptions};

const USAGE: &str = "usage: merge_shards <manifest_dir>";

fn main() -> ExitCode {
    // Shared surface first (`REUNION_OUT_DIR` names where the merged
    // reports go); the manifest directory is the sole positional leftover.
    let (opts, args) = match RunOptions::parse_cli() {
        Ok(resolved) => resolved,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let [dir] = args.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let groups = match find_manifests(Path::new(dir)) {
        Ok(groups) if !groups.is_empty() => groups,
        Ok(_) => {
            eprintln!("no MANIFEST_*.jsonl shard manifests found under {dir}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("cannot read {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut failed = false;
    for (id, paths) in &groups {
        match merge_manifests(paths) {
            Ok(report) => match report.write_json(&opts.out_dir) {
                Ok(path) => println!(
                    "OK   {id}: merged {} manifest(s), {} records -> {}",
                    paths.len(),
                    report.records.len(),
                    path.display()
                ),
                Err(e) => {
                    failed = true;
                    println!("FAIL {id}: cannot write merged report: {e}");
                }
            },
            Err(e) => {
                failed = true;
                println!("FAIL {id}: {e}");
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
