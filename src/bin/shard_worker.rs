//! Minimal out-of-tree dispatch worker, with fault-injection knobs.
//!
//! This is what a shard worker looks like when built on `reunion-sim`'s
//! public surface alone: resolve `REUNION_SHARD=i/N` and `REUNION_OUT_DIR`
//! (the transport's wire format) through `RunOptions`, like every binary,
//! open (or resume) the shard's crash-safe manifest, and append one
//! record per cell of the fixed [`reunion::testkit::dispatch_grid`]. The
//! dispatch integration suite launches it through `LocalProcess`
//! transports and drives its fault knobs via the environment:
//!
//! * `WORKER_FAIL_AT_START=1` — exit(3) before touching the manifest
//!   (a host that dies before its first cell),
//! * `WORKER_STALL_AFTER=<k>` — complete `k` cells this run, then hang
//!   forever (a wedged host the lease must catch),
//! * `WORKER_EXIT_AFTER=<k>` — complete `k` cells this run, then exit(4)
//!   (a host that dies mid-shard, leaving a partial manifest).
//!
//! The knobs count cells completed *by this invocation*, so a seeded
//! (resumed) re-dispatch on a healthy host runs the remaining cells
//! normally.

use std::process::exit;
use std::time::Duration;

use reunion::testkit::dispatch_grid;
use reunion_sim::{measure_cell, ManifestHeader, RunOptions, ShardManifest};

fn env_count(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

fn main() {
    if env_count("WORKER_FAIL_AT_START") == Some(1) {
        eprintln!("shard_worker: WORKER_FAIL_AT_START set; dying before the first cell");
        exit(3);
    }
    let opts = match RunOptions::parse_cli(RunOptions::default()) {
        Ok((opts, _)) => opts,
        Err(e) => {
            eprintln!("shard_worker: {e}");
            exit(2);
        }
    };
    let Some(shard) = opts.shard else {
        eprintln!("shard_worker: REUNION_SHARD=i/N is required");
        exit(2);
    };
    let stall_after = env_count("WORKER_STALL_AFTER");
    let exit_after = env_count("WORKER_EXIT_AFTER");

    let grid = dispatch_grid();
    let header = ManifestHeader {
        id: grid.id().to_string(),
        caption: grid.caption().to_string(),
        shard,
        cells: grid.cells().len(),
        sample: *grid.sample(),
        sample_overrides: grid.sample_overrides().to_vec(),
        obs: *grid.observability(),
    };
    let dir = &opts.out_dir;
    let mut manifest = match ShardManifest::create_or_resume(dir, header) {
        Ok(m) => m,
        Err(e) => {
            eprintln!(
                "shard_worker: cannot open manifest under {}: {e}",
                dir.display()
            );
            exit(1);
        }
    };
    let todo: Vec<usize> = shard
        .cell_indices(grid.cells().len())
        .into_iter()
        .filter(|i| !manifest.completed().contains_key(i))
        .collect();
    println!(
        "shard_worker: shard {shard}, {} cell(s) resumed, {} to run",
        manifest.completed().len(),
        todo.len()
    );

    // The fault knobs count cells completed *by this invocation*:
    // `done_this_run` is the number finished before the current cell.
    for (done_this_run, i) in todo.into_iter().enumerate() {
        if stall_after.is_some_and(|k| done_this_run >= k) {
            println!("shard_worker: WORKER_STALL_AFTER reached; hanging");
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        if exit_after.is_some_and(|k| done_this_run >= k) {
            eprintln!("shard_worker: WORKER_EXIT_AFTER reached; dying mid-shard");
            exit(4);
        }
        let record = measure_cell(&grid, &grid.cells()[i]);
        if let Err(e) = manifest.append(i, &record) {
            eprintln!("shard_worker: cannot append cell {i}: {e}");
            exit(1);
        }
    }
    println!("shard_worker: shard {shard} complete");
}
