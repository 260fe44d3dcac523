//! Host-throughput harness: wall-clock cells/sec over a reference grid.
//!
//! Unlike the eight figure/table binaries (which measure *simulated*
//! performance and whose `BENCH_<id>.json` artifacts are fidelity-gated),
//! this binary measures how fast the *simulator itself* chews through
//! grid cells on the host. Its artifact, `BENCH_perf.json`, is
//! machine-dependent by design and therefore excluded from baseline
//! gating — CI uploads it as an inspection artifact only.
//!
//! ```text
//! cargo run --release -p reunion-bench --bin perf -- --grid fig5
//! ```
//!
//! Options: `--grid fig5|counters` (default `fig5`), plus the shared
//! `--profile full|fast` (default `fast` here — throughput does not need
//! the paper's full sampling depth) and `--engine dense|skip`.
//!
//! Cells are executed serially on one thread so the reported throughput
//! is a stable per-core number, unaffected by host load or worker count.

use std::time::Instant;

use reunion_bench::{banner, workloads, RunOptions};
use reunion_core::{ExecutionMode, SampleConfig, SystemConfig};
use reunion_sim::{out_dir, ConfigPatch, ExperimentGrid};
use reunion_workloads::Workload;

/// Which reference grid to time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GridChoice {
    /// The full Figure 5 grid: all 11 workloads, Strict and Reunion.
    Fig5,
    /// The small deterministic-counters grid (2 workloads, 2 modes,
    /// 2 latencies) — the one the CI perf-smoke job runs.
    Counters,
}

struct PerfOpts {
    grid: GridChoice,
    run: RunOptions,
}

fn parse_args() -> Result<PerfOpts, String> {
    // The shared surface resolves everything but `--grid`; throughput does
    // not need the paper's full sampling depth, so this binary defaults the
    // profile to `fast` (a `--profile` flag or REUNION_PROFILE/REUNION_FAST
    // environment setting still wins, as everywhere else).
    let (run, leftovers) = RunOptions::resolve(std::env::args().skip(1), &|k| {
        std::env::var(k)
            .ok()
            .or_else(|| (k == "REUNION_PROFILE").then(|| "fast".to_string()))
    })?;
    let mut grid = GridChoice::Fig5;
    let mut it = leftovers.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--grid" {
            let v = it.next().ok_or("--grid requires a value")?;
            grid = parse_grid(&v)?;
        } else if let Some(v) = arg.strip_prefix("--grid=") {
            grid = parse_grid(v)?;
        } else {
            return Err(format!("unrecognized argument {arg:?}"));
        }
    }
    Ok(PerfOpts { grid, run })
}

fn parse_grid(s: &str) -> Result<GridChoice, String> {
    match s {
        "fig5" => Ok(GridChoice::Fig5),
        "counters" => Ok(GridChoice::Counters),
        other => Err(format!("unknown grid {other:?} (expected fig5|counters)")),
    }
}

/// Writes `BENCH_perf.json` into the artifact directory.
fn write_report(json: &str) {
    let dir = out_dir();
    let path = dir.join("BENCH_perf.json");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("[report: {}]", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_perf.json: {e}"),
    }
}

fn build_grid(opts: &PerfOpts) -> ExperimentGrid {
    match opts.grid {
        GridChoice::Fig5 => ExperimentGrid::builder("perf-fig5", "perf: fig5 reference grid")
            .run_options(&opts.run)
            .sample(opts.run.profile.sample())
            .workloads(workloads())
            .modes(&[ExecutionMode::Strict, ExecutionMode::Reunion])
            .build(),
        GridChoice::Counters => {
            ExperimentGrid::builder("perf-counters", "perf: counters reference grid")
                .run_options(&opts.run)
                .base(SystemConfig::small_test)
                .sample(SampleConfig::quick())
                .workloads(vec![
                    Workload::by_name("sparse").unwrap(),
                    Workload::by_name("apache").unwrap(),
                ])
                .modes(&[ExecutionMode::Strict, ExecutionMode::Reunion])
                .patches(vec![
                    ConfigPatch::new("lat=0").latency(0),
                    ConfigPatch::new("lat=10").latency(10),
                ])
                .build()
        }
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
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: perf [--grid fig5|counters] {}",
                reunion_bench::RUN_OPTIONS_USAGE
            );
            std::process::exit(2);
        }
    };
    banner("perf", "host throughput (wall-clock) over a reference grid");

    let grid = build_grid(&opts);
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
    println!(
        "engine/profile     {}/{}",
        opts.run.engine, opts.run.profile
    );
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
        opts.run.engine,
        opts.run.profile,
        cells,
        wall,
        cells_per_sec,
        instructions,
        insns_per_sec,
        cycles,
        cycles_per_sec,
        rss,
    );
    write_report(&json);
}
