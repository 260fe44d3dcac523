//! The front door to every table and figure of the evaluation.
//!
//! ```text
//! reunion-bench run <id> [--profile full|fast] [--engine dense|skip] ...
//! ```
//!
//! `<id>` is a row of [`reunion_bench::registry`] (`fig5`, `table3`,
//! `kernels`, …): the run prints the experiment's table and writes
//! `BENCH_<id>.json` under `$REUNION_OUT_DIR`, or — with `--shard i/N` —
//! streams one shard's cells to a resumable manifest for `merge_shards`.

use reunion_bench::{registry, run_options_with_extras, usage_error};

fn main() {
    let (opts, args) = run_options_with_extras();
    let id = match args.as_slice() {
        [run, id] if run == "run" => id,
        [run, _, extra, ..] if run == "run" => {
            usage_error(&format!("unrecognized argument {extra:?}"))
        }
        _ => usage_error(&format!("expected: run <id> (one of: {})", registry::ids())),
    };
    match registry::find(id) {
        Ok(experiment) => experiment.run(&opts),
        Err(e) => usage_error(&e),
    }
}
