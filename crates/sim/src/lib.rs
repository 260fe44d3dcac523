//! Experiment-runner subsystem: declarative grids, parallel execution,
//! structured reports, and the front door that regenerates every table and
//! figure of the evaluation.
//!
//! The paper's evaluation is a pile of cartesian products — every figure
//! and table sweeps (workload × execution mode × one or two configuration
//! knobs) and aggregates the results. This crate factors that shape out of
//! the individual experiment binaries:
//!
//! * [`ExperimentGrid`] (built through [`GridBuilder`]) — a *declarative*
//!   description of one experiment: the workload/mode/patch axes, the base
//!   [`SystemConfig`] they override, the sampling profile (with optional
//!   per-workload overrides), and what to measure per [`Cell`]
//!   ([`Metric`]).
//! * [`ConfigPatch`] — a labeled sparse override (comparison latency,
//!   phantom strength, TLB model, consistency, fingerprint interval, …).
//! * [`Runner`] — executes cells across OS threads, costliest cells
//!   first, so heterogeneous cells don't straggle; [`measure_cell`] is the
//!   unit of work it schedules, callable one cell at a time.
//! * [`RunOptions`] — one typed resolution of the run surface every
//!   experiment driver shares (profile, engine, serial/threads,
//!   observability, artifact directory): one command-line flag each —
//!   the artifact directory alone is `REUNION_OUT_DIR` — with unrecognized
//!   arguments handed back to the caller ([`RUN_OPTIONS_USAGE`] is the
//!   usage line). [`RunOptions::parse_cli`], called once at `main`, is the
//!   only reader of the process environment; everything below takes the
//!   resolved value.
//! * [`ShardSpec`] / [`ShardManifest`] / [`merge_manifests`] — a manifest
//!   library: a crash-safe, append-only file of one [`ManifestHeader`]
//!   line and one record per cell, owned by a round-robin [`ShardSpec`]
//!   slice of the grid. A torn trailing line is dropped on reopening, and
//!   merging a complete partition ([`read_manifest`]; an incomplete or
//!   mixed one is a [`MergeError`]) reproduces the report byte for byte.
//!   No run writes one: the repo benchmark times this round trip.
//! * [`ExperimentReport`] / [`RunRecord`] — results in grid enumeration
//!   order with lookup and aggregation helpers; a record's [`Outcome`] is
//!   a [`NormalizedSummary`], a [`MeasureSummary`] or a [`StaticSummary`]
//!   according to the grid's metric. [`ExperimentReport::write_json`]
//!   emits the `BENCH_<id>.json` trajectory artifact the benchmarks are
//!   tracked by.
//! * [`JsonWriter`] / [`parse_json`] — the deterministic, dependency-free
//!   JSON serializer and reader ([`JsonValue`], [`JsonParseError`]) behind
//!   every artifact and manifest.
//!
//! Determinism is a hard invariant: a parallel run and a serial run of the
//! same grid produce **byte-identical** JSON, and so does a report merged
//! from any `N`-way partition of its records into manifests (guarded by
//! tests in [`runner`](crate::Runner) and the `sharding` integration
//! suite): nothing about scheduling or partitioning leaks into results.
//!
//! # Examples
//!
//! ```
//! use reunion_core::{ExecutionMode, SampleConfig, SystemConfig};
//! use reunion_sim::{ConfigPatch, ExperimentGrid, RunOptions};
//! use reunion_workloads::Workload;
//!
//! // Figure-6-shaped sweep, shrunk to doc-test scale.
//! let grid = ExperimentGrid::builder("doc", "latency sweep")
//!     .base(SystemConfig::small_test)
//!     .sample(SampleConfig::quick())
//!     .workloads(vec![Workload::by_name("sparse").unwrap()])
//!     .modes(&[ExecutionMode::Reunion])
//!     .patches(vec![
//!         ConfigPatch::new("lat=0").latency(0),
//!         ConfigPatch::new("lat=40").latency(40),
//!     ])
//!     .build();
//! let report = RunOptions::default().runner().run(&grid);
//! let fast = report.get("sparse", ExecutionMode::Reunion, "lat=0").unwrap();
//! assert!(fast.normalized_ipc().unwrap() > 0.0);
//! ```
//!
//! A report's records, split over two manifests and merged back:
//!
//! ```
//! use reunion_core::{ExecutionMode, SampleConfig, SystemConfig};
//! use reunion_sim::{
//!     merge_manifests, ExperimentGrid, ManifestHeader, Runner, ShardManifest, ShardSpec,
//! };
//! use reunion_workloads::Workload;
//!
//! let grid = ExperimentGrid::builder("doc_shard", "manifest round trip")
//!     .base(SystemConfig::small_test)
//!     .sample(SampleConfig::quick())
//!     .workloads(vec![Workload::by_name("sparse").unwrap()])
//!     .modes(&[ExecutionMode::NonRedundant, ExecutionMode::Reunion])
//!     .build();
//! let report = Runner::serial().run(&grid);
//! let dir = std::env::temp_dir().join(format!("reunion-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let mut paths = Vec::new();
//! for shard in [ShardSpec::new(1, 2), ShardSpec::new(2, 2)] {
//!     let header = ManifestHeader {
//!         id: report.id.clone(),
//!         caption: report.caption.clone(),
//!         shard,
//!         cells: report.records.len(),
//!         sample: report.sample,
//!         sample_overrides: report.sample_overrides.clone(),
//!         obs: Default::default(),
//!     };
//!     let mut manifest = ShardManifest::create_or_resume(&dir, header).unwrap();
//!     for (i, record) in report.records.iter().enumerate().filter(|(i, _)| shard.owns(*i)) {
//!         manifest.append(i, record).unwrap();
//!     }
//!     paths.push(dir.join(shard.manifest_file_name(&report.id)));
//! }
//! assert_eq!(merge_manifests(&paths).unwrap().to_json(), report.to_json());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! # The front door
//!
//! The `reunion-bench` binary (this package's default run target) is a thin
//! `main` over [`run_cli`]:
//!
//! ```text
//! reunion-bench run <id> [--profile full|fast] [--engine dense|skip] ...
//! reunion-bench counters [--engine dense|skip]
//! ```
//!
//! Every table and figure is one row of the experiment registry: an id, a
//! caption, how to declare its [`ExperimentGrid`] and how to print its
//! table. `run <id>` looks the row up, runs the grid through
//! [`RunOptions::runner`], prints the table and writes `BENCH_<id>.json`
//! under `$REUNION_OUT_DIR`. `counters` prints the deterministic work
//! counters CI diffs against `baselines/BENCH_counters.txt`; host timing is
//! the repo benchmark's (`benchmark/`), not this crate's. Run e.g.
//! `cargo run --release -p reunion-sim -- run fig5`.
//!
//! [`SystemConfig`]: reunion_core::SystemConfig

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod grid;
mod json;
mod manifest;
mod merge;
mod options;
mod patch;
mod registry;
mod report;
mod runner;
mod shard;

pub use grid::{Cell, ExperimentGrid, GridBuilder, Metric, SampleOverride};
pub use json::{parse_json, JsonParseError, JsonValue, JsonWriter};
pub use manifest::{read_manifest, ManifestHeader, ShardManifest};
pub use merge::{merge_manifests, MergeError};
pub use options::{RunOptions, RUN_OPTIONS_USAGE};
pub use patch::ConfigPatch;
pub use report::{
    ExperimentReport, MeasureSummary, NormalizedSummary, Outcome, RunRecord, StaticSummary,
};
pub use runner::{measure_cell, Runner};
pub use shard::ShardSpec;

use reunion_core::{sampled_run, ExecutionMode, SampleConfig, SystemConfig};
use reunion_kernel::stats::RunningStats;
use reunion_workloads::{suite, Workload, WorkloadClass};

/// The `reunion-bench` binary: resolves the run options once, at `main`
/// ([`RunOptions::parse_cli`]), then runs `run <id>` or `counters`. A
/// malformed flag, an unknown id or a stray argument prints the usage
/// summary and exits with status 2: a typo must never silently run the
/// expensive default configuration.
pub fn run_cli() {
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

/// Prints `message` plus the usage summary and exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: reunion-bench run <id> | counters  {RUN_OPTIONS_USAGE}");
    eprintln!("ids: {}", registry::ids());
    std::process::exit(2);
}

/// The comparison latencies of the paper's sensitivity sweeps — the shared
/// x-axis of Figure 6, Figure 7(b) and the SC ablation.
pub(crate) const SWEEP_LATENCIES: [u64; 5] = [0, 10, 20, 30, 40];

/// Canonical patch label for a latency sweep point (`"lat=10"`).
pub(crate) fn latency_label(latency: u64) -> String {
    format!("lat={latency}")
}

/// Canonical patch label for a two-axis sweep point (`"sw:lat=10"`), where
/// `key` names the second axis value (TLB model, consistency model, …).
pub(crate) fn keyed_latency_label(key: &str, latency: u64) -> String {
    format!("{key}:lat={latency}")
}

/// Prints a figure/table banner.
pub(crate) fn banner(id: &str, caption: &str) {
    println!("==============================================================");
    println!("{id}: {caption}");
    println!("==============================================================");
}

/// The commercial (Web+OLTP+DSS) subset of the suite, in presentation
/// order — the population of Figures 7(b) and the SC ablation.
pub(crate) fn commercial_workloads() -> Vec<Workload> {
    suite()
        .into_iter()
        .filter(|w| w.class().is_commercial())
        .collect()
}

/// Executes the grid on [`RunOptions::runner`], writes `BENCH_<id>.json`
/// to `opts.out_dir` and returns the report for table printing.
///
/// This is the single entry point every experiment funnels through: no
/// driver runs simulations in a hand-rolled loop.
///
/// `opts.out_dir` is created first if it is missing, because `--obs` runs
/// write `TRACE_*.jsonl` dumps there while cells run, long before the
/// report. Failing to create it or to write the report exits with
/// status 1, naming the path.
pub(crate) fn run_and_emit(grid: &ExperimentGrid, opts: &RunOptions) -> ExperimentReport {
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("could not create {}: {e}", opts.out_dir.display());
        std::process::exit(1);
    }
    let report = opts.runner().run(grid);
    match report.write_json(&opts.out_dir) {
        Ok(path) => println!("[report: {}]", path.display()),
        Err(e) => {
            eprintln!("could not write BENCH_{}.json: {e}", report.id);
            std::process::exit(1);
        }
    }
    report
}

/// The fixed reference grid behind the deterministic bench counters
/// (`baselines/BENCH_counters.txt`): two workloads of different classes,
/// both paired modes, two comparison latencies, under the quick sampling
/// profile — small enough for CI, wide enough that a change to any hot
/// path moves at least one counter.
fn counters_grid(opts: &RunOptions) -> ExperimentGrid {
    ExperimentGrid::builder("counters", "deterministic bench counters")
        .run_options(opts)
        .base(SystemConfig::small_test)
        .sample(SampleConfig::quick())
        .workloads(vec![
            Workload::by_name("sparse").expect("in suite"),
            Workload::by_name("apache").expect("in suite"),
        ])
        .modes(&[ExecutionMode::Strict, ExecutionMode::Reunion])
        .patches(vec![
            ConfigPatch::new("lat=0").latency(0),
            ConfigPatch::new("lat=10").latency(10),
        ])
        .build()
}

/// The deterministic bench counters: machine-independent work counters
/// over `counters_grid`, one `counter <name> <value>` line each — what
/// `reunion-bench counters` prints and CI diffs verbatim against
/// `baselines/BENCH_counters.txt`, so a change to how much work the
/// simulator does per cell shows up on hosts whose timings cannot be
/// trusted. (Timing itself is the repo benchmark's, under `benchmark/`.)
///
/// Each cell's two systems (the model and its non-redundant baseline) go
/// through [`sampled_run`], because two of the lines are engine
/// diagnostics that live on the finished system and in no `BENCH_<id>.json`
/// field: every simulated-work counter must be identical between
/// `--engine dense` and `skip`, while `skipped_cycles` (zero under dense)
/// and `proc_ticks` (processors × cycles under dense) are the two lines
/// allowed to differ. `proc_ticks` is the tightness of the skip engine's
/// bounds as a count: it moves as soon as any bound loosens, even inside
/// cycles that are still visited.
fn counters(opts: &RunOptions) -> String {
    let grid = counters_grid(opts);
    let mut instructions = 0u64;
    let mut cycles = 0u64;
    let mut incoherence = 0u64;
    let mut serializing_stalls = 0u64;
    let mut peak_check_events = 0u64;
    let mut peak_store_chain = 0u64;
    let mut store_chain_spills = 0u64;
    let mut skipped = 0u64;
    let mut proc_ticks = 0u64;
    // Tag storage owned, as counts, on any host. Sets: a directory
    // allocated up front reads every set of every system here (256 × 16 =
    // 4 096 on this grid's small L2, whose runs leave only a few sets
    // untouched; 32 768 a system on the Table 1 machine, whose
    // full-profile samples touch 8 % (em3d) to 65 % (db2_dss_q2) of them).
    // Ways: sets allocated at full associativity read 4 × the sets here;
    // sets that grow by size class read what their lines needed.
    let mut l2_sets_materialised = 0usize;
    let mut l2_ways_allocated = 0usize;
    for cell in grid.cells() {
        let cfg = grid.cell_config(cell);
        for side in [&cfg, &cfg.baseline()] {
            let run = sampled_run(side, &cell.workload, grid.cell_sample(cell));
            let t = &run.measurement.totals;
            instructions += t.user_instructions;
            cycles += t.cycles;
            incoherence += t.input_incoherence;
            serializing_stalls += t.serializing_stall_cycles;
            // Allocation-sensitivity probes: peaks combine by max (order
            // independent), spill events by sum. A change in buffer
            // recycling or inline capacity moves these before it moves any
            // simulated-work counter.
            peak_check_events = peak_check_events.max(t.peak_check_events);
            peak_store_chain = peak_store_chain.max(t.peak_store_chain);
            store_chain_spills += t.store_chain_spills;
            skipped += run.measurement.skipped_cycles;
            proc_ticks += run.system.proc_ticks();
            l2_sets_materialised += run.system.memory().l2_sets_materialised();
            l2_ways_allocated += run.system.memory().l2_ways_allocated();
        }
    }
    // Workload artifact cache population after the sweep. The grid's cells
    // hold clones of the builder's two workloads, so all cells of one
    // workload share one cache; count each underlying cache once.
    let mut seen = std::collections::BTreeSet::new();
    let mut cached_programs = 0usize;
    // One image per workload however many systems were built from it: a
    // regression to per-system image builds leaves this slot empty.
    let mut cached_memories = 0usize;
    // What those images hold on the heap: moves with their representation.
    let mut image_bytes = 0usize;
    for cell in grid.cells() {
        if seen.insert(cell.workload.name()) {
            let cached = cell.workload.cache_population();
            cached_programs += cached.programs;
            cached_memories += usize::from(cached.memory);
            image_bytes += cell.workload.initial_memory().heap_bytes();
        }
    }
    let lines = [
        ("cells_executed", grid.cells().len() as u64),
        ("instructions_simulated", instructions),
        ("cycles_simulated", cycles),
        ("input_incoherence_events", incoherence),
        ("serializing_stall_cycles", serializing_stalls),
        ("skipped_cycles", skipped),
        ("proc_ticks", proc_ticks),
        ("peak_check_events", peak_check_events),
        ("peak_store_chain", peak_store_chain),
        ("store_chain_spills", store_chain_spills),
        ("workload_programs_cached", cached_programs as u64),
        ("workload_memories_cached", cached_memories as u64),
        ("workload_image_bytes", image_bytes as u64),
        ("l2_sets_materialised", l2_sets_materialised as u64),
        ("l2_ways_allocated", l2_ways_allocated as u64),
    ];
    lines
        .iter()
        .map(|(name, value)| format!("counter {name} {value}\n"))
        .collect()
}

/// Averages `(class, value)` pairs per class, in presentation order.
pub(crate) fn class_averages(rows: &[(WorkloadClass, f64)]) -> Vec<(WorkloadClass, f64)> {
    WorkloadClass::ALL
        .iter()
        .map(|&class| {
            let mut summary = RunningStats::new();
            for &(_, v) in rows.iter().filter(|(c, _)| *c == class) {
                summary.push(v);
            }
            (class, summary.mean())
        })
        .collect()
}

/// Averages values over the commercial (Web+OLTP+DSS) and scientific
/// workloads, the paper's two headline groups.
pub(crate) fn commercial_scientific_averages(rows: &[(WorkloadClass, f64)]) -> (f64, f64) {
    let mut commercial = RunningStats::new();
    let mut scientific = RunningStats::new();
    for &(class, value) in rows {
        if class.is_commercial() {
            commercial.push(value);
        } else {
            scientific.push(value);
        }
    }
    (commercial.mean(), scientific.mean())
}

/// A rate of `events` per million `instructions` with its exact Poisson
/// 95 % interval ([`poisson_ci95`]), as `rate [low, high]`; no events print
/// as the interval's upper end, `< high`.
pub(crate) fn rate_with_ci95(events: u64, instructions: u64) -> String {
    if instructions == 0 {
        return "-".to_string();
    }
    let per_million = |count: f64| count * 1.0e6 / instructions as f64;
    let (low, high) = poisson_ci95(events);
    if events == 0 {
        return format!("< {}", three_figures(per_million(high)));
    }
    format!(
        "{} [{}, {}]",
        three_figures(per_million(events as f64)),
        three_figures(per_million(low)),
        three_figures(per_million(high)),
    )
}

/// `x` to at least three significant figures, with no exponent.
fn three_figures(x: f64) -> String {
    let decimals = (2.0 - x.abs().log10().floor()).clamp(0.0, 6.0) as usize;
    format!("{x:.decimals$}")
}

/// The exact 95 % confidence interval on the mean of a Poisson count after
/// `events` events (Garwood 1936): the means under which `events` or more,
/// and `events` or fewer, are each 2.5 % likely. Both ends are found by
/// bisection on the Poisson tails, which are regularized incomplete gamma
/// functions: P(X ≤ k) = Q(k + 1, μ) and P(X ≥ k) = P(k, μ).
fn poisson_ci95(events: u64) -> (f64, f64) {
    const TAIL: f64 = 0.025;
    let k = events as f64;
    // Both ends lie well inside [0, k + 10 √(k + 1) + 10].
    let bound = k + 10.0 * (k + 1.0).sqrt() + 10.0;
    // The μ at which `tail_exceeds(μ)`, true below it, turns false.
    let bisect = |tail_exceeds: &dyn Fn(f64) -> bool| {
        let (mut lo, mut hi) = (0.0, bound);
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if tail_exceeds(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    };
    let low = match events {
        0 => 0.0,
        _ => bisect(&|mu| lower_gamma(k, mu) < TAIL),
    };
    let high = bisect(&|mu| 1.0 - lower_gamma(k + 1.0, mu) > TAIL);
    (low, high)
}

/// The regularized lower incomplete gamma function P(a, x), a > 0: its
/// series below x = a + 1, one minus the continued fraction of Q above
/// (Press et al., *Numerical Recipes*, §6.2).
fn lower_gamma(a: f64, x: f64) -> f64 {
    const EPS: f64 = 1e-15;
    const TINY: f64 = 1e-300;
    if x <= 0.0 {
        return 0.0;
    }
    let prefactor = (a * x.ln() - x - ln_gamma(a)).exp();
    if x < a + 1.0 {
        let (mut term, mut sum, mut n) = (1.0 / a, 1.0 / a, a);
        while term.abs() > sum.abs() * EPS {
            n += 1.0;
            term *= x / n;
            sum += term;
        }
        sum * prefactor
    } else {
        // Lentz's method.
        let mut b = x + 1.0 - a;
        let (mut c, mut d) = (1.0 / TINY, 1.0 / b);
        let mut h = d;
        for i in 1.. {
            let an = -f64::from(i) * (f64::from(i) - a);
            b += 2.0;
            d = an * d + b;
            d = if d.abs() < TINY { TINY } else { d };
            c = b + an / c;
            c = if c.abs() < TINY { TINY } else { c };
            d = 1.0 / d;
            let delta = d * c;
            h *= delta;
            if (delta - 1.0).abs() <= EPS {
                break;
            }
        }
        1.0 - h * prefactor
    }
}

/// ln Γ(x) for x > 0 by the Lanczos approximation (g = 7, nine terms),
/// good to about 15 significant figures.
fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let mut sum = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        sum += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

#[cfg(test)]
mod tests {
    use reunion_core::{Engine, Profile};
    use reunion_workloads::kernel_suite;

    use super::*;

    fn resolve(args: &[&str]) -> Result<(RunOptions, Vec<String>), String> {
        RunOptions::resolve(args.iter().map(|s| s.to_string()), &|_| None)
    }

    // Flag parsing is covered in depth by `reunion_sim::RunOptions`'s own
    // tests; these two pin the behaviours the binaries' usage contract
    // leans on.
    #[test]
    fn shared_flags_resolve_and_default() {
        let (o, leftovers) = resolve(&["--profile", "fast", "--engine=dense"]).unwrap();
        assert!(leftovers.is_empty());
        assert_eq!(o.profile, Profile::Fast);
        assert_eq!(o.engine, Engine::Dense);
        let (o, _) = resolve(&[]).unwrap();
        assert_eq!(o.engine, Engine::Skip, "skip is the default engine");
        assert_eq!(o.profile, Profile::Full);
        assert!(!o.observability.enabled, "observability is opt-in");
    }

    #[test]
    fn unknown_arguments_are_left_over_and_bad_values_rejected() {
        let (_, leftovers) = resolve(&["--wat", "--profile", "fast"]).unwrap();
        assert_eq!(leftovers, vec!["--wat"]);
        assert!(resolve(&["--profile"]).is_err());
        assert!(resolve(&["--profile", "slow"]).is_err());
        assert!(resolve(&["--engine", "sparse"]).is_err());
    }

    /// `opts` redirected into `<root>/out`, where not even `<root>` exists
    /// yet; the caller removes `<root>` when done.
    fn into_missing_dir(tag: &str, opts: RunOptions) -> (RunOptions, std::path::PathBuf) {
        let root = std::env::temp_dir().join(format!("reunion-bench-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let out_dir = root.join("out");
        (RunOptions { out_dir, ..opts }, root)
    }

    fn files_in(opts: &RunOptions) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&opts.out_dir)
            .expect("run_and_emit creates the output directory")
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn an_obs_run_leaves_its_traces_in_a_missing_output_directory() {
        let mut with_obs = RunOptions::default();
        with_obs.observability.enabled = true;
        let (opts, root) = into_missing_dir("mkdir-obs", with_obs);
        let grid = counters_grid(&opts);
        run_and_emit(&grid, &opts);
        let files = files_in(&opts);
        let traces = files.iter().filter(|f| f.starts_with("TRACE_counters_"));
        assert_eq!(traces.count(), grid.cells().len(), "{files:?}");
        assert!(files.contains(&"BENCH_counters.json".to_string()));
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn counters_render_the_gated_baseline_and_only_engine_lines_move() {
        let gated = include_str!("../../../baselines/BENCH_counters.txt");
        assert_eq!(counters(&RunOptions::default()), gated);

        let (dense, _) = resolve(&["--engine", "dense"]).unwrap();
        let dense = counters(&dense);
        let moved: Vec<&str> = gated
            .lines()
            .zip(dense.lines())
            .filter(|(skip, dense)| skip != dense)
            .map(|(skip, _)| skip.split(' ').nth(1).expect("counter <name> <value>"))
            .collect();
        assert_eq!(moved, ["skipped_cycles", "proc_ticks"]);
        assert_eq!(gated.lines().count(), dense.lines().count());
    }

    #[test]
    fn kernel_suite_is_disjoint_from_the_named_suite() {
        let named: std::collections::HashSet<_> = suite().iter().map(|w| w.name()).collect();
        let kernels = kernel_suite();
        assert_eq!(kernels.len(), 5);
        assert!(kernels.iter().all(|w| !named.contains(w.name())));
    }

    #[test]
    fn class_averages_cover_all_classes() {
        let rows = vec![
            (WorkloadClass::Web, 0.9),
            (WorkloadClass::Web, 0.8),
            (WorkloadClass::Scientific, 0.5),
        ];
        let avgs = class_averages(&rows);
        assert_eq!(avgs.len(), 4);
        assert!((avgs[0].1 - 0.85).abs() < 1e-12);
        assert_eq!(avgs[3].1, 0.5);
    }

    #[test]
    fn commercial_scientific_split() {
        let rows = vec![
            (WorkloadClass::Oltp, 0.9),
            (WorkloadClass::Dss, 0.7),
            (WorkloadClass::Scientific, 0.5),
        ];
        let (c, s) = commercial_scientific_averages(&rows);
        assert!((c - 0.8).abs() < 1e-12);
        assert!((s - 0.5).abs() < 1e-12);
    }

    /// Garwood's interval against tabulated values (halved χ² quantiles).
    #[test]
    fn poisson_intervals_match_the_tables() {
        for (events, low, high) in [(0, 0.0, 3.689), (1, 0.0253, 5.572), (10, 4.795, 18.39)] {
            let (l, h) = poisson_ci95(events);
            assert!((l - low).abs() < 5e-4, "{events}: low {l}");
            assert!((h - high).abs() < 5e-3, "{events}: high {h}");
        }
        // A large count sits near its normal approximation, k ± 1.96 √k.
        let (l, h) = poisson_ci95(10_000);
        assert!(
            (l - 9_804.9).abs() < 1.0 && (h - 10_198.0).abs() < 1.0,
            "{l} {h}"
        );
        // 276 388 events (em3d's null cell at 32 M cycles) resolve too.
        let (l, h) = poisson_ci95(276_388);
        assert!(l < 276_388.0 && h > 276_388.0 && h - l < 2_200.0, "{l} {h}");
    }

    #[test]
    fn rates_print_with_their_interval() {
        assert_eq!(rate_with_ci95(0, 1_000_000), "< 3.69");
        assert_eq!(rate_with_ci95(10, 1_000_000), "10.0 [4.80, 18.4]");
        // em3d's global cell: 1 event in 2.56 M instructions.
        assert_eq!(rate_with_ci95(1, 2_560_000), "0.391 [0.00989, 2.18]");
        assert_eq!(rate_with_ci95(3, 0), "-");
    }

    #[test]
    fn commercial_subset_is_proper() {
        let all = suite().len();
        let commercial = commercial_workloads();
        assert!(!commercial.is_empty());
        assert!(commercial.len() < all);
        assert!(commercial.iter().all(|w| w.class().is_commercial()));
    }
}
