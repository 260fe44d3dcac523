//! Host-throughput harness: wall-clock cells/sec over a reference grid.
//!
//! Unlike `reunion-bench run <id>` (which measures *simulated* performance
//! and whose `BENCH_<id>.json` artifacts are fidelity-gated), this binary
//! measures how fast the *simulator itself* chews through grid cells on
//! the host. Its artifact, `BENCH_perf.json`, is machine-dependent by
//! design and therefore excluded from baseline gating — CI uploads it as
//! an inspection artifact only.
//!
//! ```text
//! cargo run --release -p reunion-bench --bin perf -- --grid fig5
//! ```
//!
//! Options: `--grid <id>|counters` (default `fig5`; any normalized-IPC
//! grid of the experiment registry, or the small deterministic-counters
//! grid the CI perf-smoke job runs), plus the shared `--profile full|fast`
//! (default `fast` here — throughput does not need the paper's full
//! sampling depth) and `--engine dense|skip`.
//!
//! Cells are executed serially on one thread so the reported throughput
//! is a stable per-core number, unaffected by host load or worker count.

use std::time::Instant;

use reunion_bench::{banner, counters_grid, registry, Profile, RunOptions};
use reunion_sim::{ExperimentGrid, Metric};

/// Resolves the run options (this binary's default profile is `fast`; a
/// `--profile` flag or `REUNION_PROFILE` still wins, as everywhere else)
/// and builds the grid `--grid` names.
fn parse_args() -> Result<(RunOptions, ExperimentGrid), String> {
    let (run, leftovers) = RunOptions::parse_cli(RunOptions {
        profile: Profile::Fast,
        ..RunOptions::default()
    })?;
    let mut id = "fig5".to_string();
    let mut it = leftovers.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--grid" {
            id = it.next().ok_or("--grid requires a value")?;
        } else if let Some(v) = arg.strip_prefix("--grid=") {
            id = v.to_string();
        } else {
            return Err(format!("unrecognized argument {arg:?}"));
        }
    }
    let grid = match id.as_str() {
        "counters" => counters_grid(&run),
        id => registry::find(id)?.grid(&run),
    };
    if grid.metric() != Metric::Normalized {
        return Err(format!("grid {id:?} does not measure normalized IPC"));
    }
    Ok((run, grid))
}

/// Writes `BENCH_perf.json` into the artifact directory.
fn write_report(opts: &RunOptions, json: &str) {
    let path = opts.out_dir.join("BENCH_perf.json");
    match std::fs::create_dir_all(&opts.out_dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("[report: {}]", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_perf.json: {e}"),
    }
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where procfs is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn main() {
    let (opts, grid) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: perf [--grid <id>|counters] {}",
                reunion_bench::RUN_OPTIONS_USAGE
            );
            std::process::exit(2);
        }
    };
    banner("perf", "host throughput (wall-clock) over a reference grid");

    let cells = grid.cells().len();
    let mut instructions = 0u64;
    let mut cycles = 0u64;
    let start = Instant::now();
    for cell in grid.cells() {
        let cfg = grid.cell_config(cell);
        let n = reunion_core::normalized_ipc(&cfg, &cell.workload, grid.cell_sample(cell));
        for side in [&n.model, &n.baseline] {
            instructions += side.totals.user_instructions;
            cycles += side.totals.cycles;
        }
    }
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    let rss = peak_rss_bytes();

    let cells_per_sec = cells as f64 / wall;
    let insns_per_sec = instructions as f64 / wall;
    let cycles_per_sec = cycles as f64 / wall;
    println!("grid               {} ({cells} cells)", grid.id());
    println!("engine/profile     {}/{}", opts.engine, opts.profile);
    println!("wall seconds       {wall:.3}");
    println!("cells/sec          {cells_per_sec:.3}");
    println!("instructions/sec   {insns_per_sec:.0}");
    println!("cycles/sec         {cycles_per_sec:.0}");
    println!("peak RSS bytes     {rss}");

    let json = format!(
        concat!(
            "{{\n",
            "  \"id\": \"perf\",\n",
            "  \"grid\": \"{}\",\n",
            "  \"engine\": \"{}\",\n",
            "  \"profile\": \"{}\",\n",
            "  \"cells\": {},\n",
            "  \"wall_seconds\": {:.6},\n",
            "  \"cells_per_sec\": {:.3},\n",
            "  \"instructions_simulated\": {},\n",
            "  \"instructions_per_sec\": {:.0},\n",
            "  \"cycles_simulated\": {},\n",
            "  \"cycles_per_sec\": {:.0},\n",
            "  \"peak_rss_bytes\": {}\n",
            "}}\n",
        ),
        grid.id(),
        opts.engine,
        opts.profile,
        cells,
        wall,
        cells_per_sec,
        instructions,
        insns_per_sec,
        cycles,
        cycles_per_sec,
        rss,
    );
    write_report(&opts, &json);
}
