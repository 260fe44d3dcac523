//! The front door to every table and figure of the evaluation.
//!
//! ```text
//! reunion-bench run <id> [--profile full|fast] [--engine dense|skip] ...
//! reunion-bench counters [--engine dense|skip]
//! ```
//!
//! `<id>` is a row of [`reunion_bench::registry`] (`fig5`, `table3`,
//! `kernels`, …): the run prints the experiment's table and writes
//! `BENCH_<id>.json` under `$REUNION_OUT_DIR`. `counters` prints the deterministic work counters CI diffs against
//! `baselines/BENCH_counters.txt` ([`reunion_bench::counters`]).

use reunion_bench::{counters, registry, RunOptions, RUN_OPTIONS_USAGE};

/// Prints `message` plus the usage summary and exits with status 2: a typo
/// must never silently run the expensive default configuration.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: reunion-bench run <id> | counters  {RUN_OPTIONS_USAGE}");
    eprintln!("ids: {}", registry::ids());
    std::process::exit(2);
}

fn main() {
    let (opts, args) = RunOptions::parse_cli().unwrap_or_else(|e| usage_error(&e));
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["run", id] => match registry::find(id) {
            Some(experiment) => experiment.run(&opts),
            None => usage_error(&format!("unknown experiment {id:?}")),
        },
        ["counters"] => print!("{}", counters(&opts)),
        ["run", _, extra, ..] | ["counters", extra, ..] => {
            usage_error(&format!("unrecognized argument {extra:?}"))
        }
        _ => usage_error("expected a command"),
    }
}
