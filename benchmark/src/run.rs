//! One `--workload` run: set-up, then either the timed rounds (end-to-end
//! metrics) or the quiet/traced/observed rounds and the probes (per-layer
//! metrics).

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use reunion_core::{normalized_ipc, CmpSystem, ExecutionMode, ObsConfig};
use reunion_sim::{parse_json, JsonValue, RunRecord};

use crate::estimator::{low_gap, median, quartile_spread, Rounds};
use crate::grids::Workbench;
use crate::measure::{
    pass_with, pipeline_tail, quiet_pass, record_of, report_of, self_checks, sim_digest,
    simulated_instructions, Failures, Pass,
};
use crate::probes::{self, Prober};
use crate::report::{Measured, RunReport};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::trace::{self_time_by_name, self_times, to_jsonl};
use crate::traced::{mode_index, mode_tag, traced_pass, TracedPass};

/// The paper's class-mean normalized IPC, the only reference the repo has.
const PAPER_REFERENCE: &str = include_str!("../reference/paper.json");

/// Set-up samples per run (this process plus fresh child processes): as
/// many as fit in [`SETUP_BUDGET_S`], between 5 and 15.
const SETUP_BUDGET_S: f64 = 2.5;

/// How far the traced round's self times may miss its wall time.
const TRACE_SUM_TOLERANCE: f64 = 0.02;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// The benchmark's own directory (`out/` lives under it).
    pub dir: PathBuf,
}

impl RunArgs {
    pub fn out_dir(&self) -> PathBuf {
        self.dir.join("out")
    }
}

/// Simulated cycles each freshly built system runs during set-up: enough
/// to reach every first-use path of a tick, too few to cost anything.
const FIRST_TOUCH_CYCLES: u64 = 1_000;

/// Set-up, the cold start a user pays before any cell makes progress:
/// build the workload's grids, then for every cell generate its programs
/// and memory image, construct both of its systems and run each for
/// [`FIRST_TOUCH_CYCLES`]. Returns the workload and the seconds since
/// process start.
///
/// No round is part of set-up: at 2 to 7 s one could not be repeated
/// several times per run inside the time the benchmark may take, and its
/// cost is almost all steady-state simulation, which the throughput metric
/// already carries.
pub fn set_up(args: &RunArgs, process_start: Instant) -> Result<(Workbench, f64), String> {
    let bench = Workbench::build(&args.workload, args.seed, args.smoke)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let out_dir = args.out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    for &unit in &bench.units {
        let grid = &bench.grids[unit.grid];
        for cell in bench.unit_cells(unit) {
            let model = grid.cell_config(cell);
            let mut baseline = model.clone();
            baseline.mode = ExecutionMode::NonRedundant;
            for cfg in [model, baseline] {
                let mut sys = CmpSystem::new(&cfg, &cell.workload);
                sys.run(FIRST_TOUCH_CYCLES);
                std::hint::black_box(sys.user_instructions());
            }
        }
    }
    Ok((bench, process_start.elapsed().as_secs_f64()))
}

/// What the measured rounds start from.
pub struct Started {
    pub bench: Workbench,
    /// The first round. It is timed like the others (set-up has already
    /// built and first-touched every system, and a minimum is not moved by
    /// a sample that came out slow), and every later sample's records must
    /// equal its records.
    pub first: Pass,
    pub failures: Failures,
    pub setup_seconds: f64,
    /// `VmHWM` after set-up and one pass over every cell: what a user who
    /// runs the grids once sees. Later rounds only add allocator
    /// fragmentation, by an amount that depends on how many there are.
    pub peak_rss_mb: f64,
}

/// Set-up, the first round and the kernels' self-checks.
fn start(args: &RunArgs, process_start: Instant) -> Result<Started, String> {
    let (bench, setup_seconds) = set_up(args, process_start)?;
    let first = quiet_pass(&bench, &args.out_dir());
    let peak_rss_mb = peak_rss_mb();
    let mut failures = Failures::default();
    failures.check_pass(&bench, &first, None);
    self_checks(&bench, &mut failures);
    Ok(Started {
        bench,
        first,
        failures,
        setup_seconds,
        peak_rss_mb,
    })
}

/// Runs set-up in a fresh process and returns the seconds it reports, so
/// that per-process first-touch costs are in every sample.
fn set_up_in_child(args: &RunArgs) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("setup-probe")
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .arg("--dir")
        .arg(&args.dir)
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--check");
    }
    let output = cmd.output().map_err(|e| format!("set-up child: {e}"))?;
    if !output.status.success() {
        return Err(format!("set-up child exited with {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("set-up child printed no time: {e}"))
}

/// The whole number of rounds whose time comes nearest to `seconds`: a
/// run measures for about that long, half a round more or less.
fn rounds_for(seconds: f64, round_estimate: f64, passes_per_round: f64, floor: usize) -> usize {
    let fit = (seconds / (round_estimate * passes_per_round).max(1e-9)).round();
    (fit as usize).clamp(floor, 50)
}

fn flat_records(pass: &Pass) -> Vec<RunRecord> {
    pass.records.iter().flatten().flatten().cloned().collect()
}

/// Mean absolute gap, in percentage points, between the class-mean
/// normalized IPC of `records` and the paper's four numbers. Classes with
/// no cells (smoke mode) are left out.
pub fn fidelity_err_pp(records: &[RunRecord]) -> Option<f64> {
    let reference = parse_json(PAPER_REFERENCE).ok()?;
    let mut gaps = Vec::new();
    for mode in ["strict", "reunion"] {
        for (class, commercial) in [("commercial", true), ("scientific", false)] {
            let paper = reference
                .get("normalized_ipc")?
                .get(mode)?
                .get(class)
                .and_then(JsonValue::as_f64)?;
            let values: Vec<f64> = records
                .iter()
                .filter(|r| r.mode.to_string() == mode && r.class.is_commercial() == commercial)
                .filter_map(RunRecord::normalized_ipc)
                .collect();
            if !values.is_empty() {
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                gaps.push((mean - paper).abs() * 100.0);
            }
        }
    }
    (!gaps.is_empty()).then(|| gaps.iter().sum::<f64>() / gaps.len() as f64)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn base_report(args: &RunArgs, setup: &Started, rounds: usize) -> RunReport {
    let records = flat_records(&setup.first);
    RunReport {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        smoke: args.smoke,
        rounds,
        cells_attempted: setup.bench.cells_attempted(),
        sim_digest: sim_digest(&setup.bench, &setup.first),
        simulated_instructions: simulated_instructions(&setup.first),
        fidelity_err_pp: (args.workload == "paper_grid")
            .then(|| fidelity_err_pp(&records))
            .flatten(),
        ..RunReport::default()
    }
}

fn finish(mut report: RunReport, failures: Failures) -> RunReport {
    report.failures = failures
        .iter()
        .map(|(c, r)| (c.clone(), r.clone()))
        .collect();
    for m in &report.metrics {
        if !m.value.is_finite() {
            report
                .problems
                .push(format!("{} is not finite", m.spec.name));
        }
    }
    if report.workload == "paper_grid" && report.fidelity_err_pp.is_none() {
        report.problems.push("no fidelity figure".to_string());
    }
    report
}

/// The `--trace 0` run: timed rounds, then the extra set-up samples.
pub fn end_to_end(args: &RunArgs, process_start: Instant) -> Result<RunReport, String> {
    let mut setup = start(args, process_start)?;
    let out_dir = args.out_dir();
    let first_round = setup.first.wall();
    let rounds = if args.smoke {
        1
    } else {
        rounds_for(args.seconds, first_round, 1.0, 2)
    };
    let mut timed = Rounds::new();
    timed.push(setup.first.seconds.clone());
    for _ in 1..rounds {
        let pass = quiet_pass(&setup.bench, &out_dir);
        setup
            .failures
            .check_pass(&setup.bench, &pass, Some(&setup.first));
        timed.push(pass.seconds);
    }

    let mut setup_samples = vec![setup.setup_seconds];
    let samples = if args.smoke {
        2
    } else {
        ((SETUP_BUDGET_S / setup.setup_seconds) as usize).clamp(5, 15)
    };
    for _ in 1..samples {
        setup_samples.push(set_up_in_child(args)?);
    }

    let mut report = base_report(args, &setup, rounds);
    let instructions = report.simulated_instructions as f64;
    let quiet_round = timed.quiet_round();
    let round_sums = timed.round_sums();
    let values = [
        (instructions / quiet_round / 1e6, low_gap(&round_sums)),
        (setup.peak_rss_mb, 0.0),
        (median(&setup_samples), quartile_spread(&setup_samples)),
    ];
    report.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(spec, _), (value, spread))| Measured {
            spec,
            value,
            spread: Some(spread),
        })
        .collect();
    report.info = vec![
        ("quiet_round_s".to_string(), quiet_round),
        ("round_s.median".to_string(), median(&round_sums)),
        (
            "round_s.max".to_string(),
            round_sums.iter().copied().fold(0.0, f64::max),
        ),
        ("first_round_s".to_string(), first_round),
        ("setup_samples".to_string(), setup_samples.len() as f64),
        ("final_rss_mb".to_string(), peak_rss_mb()),
    ];
    Ok(finish(report, setup.failures))
}

/// The quiet pass again with observability collecting, for
/// `obs.on_overhead_pct`.
fn observed_pass(bench: &Workbench, out_dir: &Path) -> Pass {
    pass_with(bench, |unit| {
        let grid = &bench.grids[unit.grid];
        let records = bench
            .unit_cells(unit)
            .iter()
            .map(|cell| {
                let cfg = grid.cell_config(cell).with_observability(ObsConfig {
                    enabled: true,
                    ..ObsConfig::default()
                });
                let result = normalized_ipc(&cfg, &cell.workload, grid.cell_sample(cell));
                record_of(cell, &result)
            })
            .collect();
        if unit.cell.is_some() {
            return Ok(records);
        }
        let report = report_of(grid, records);
        pipeline_tail(grid, &report, out_dir, &mut |_, f| f())?;
        Ok(report.records)
    })
}

/// The `--trace 1` run: rounds of one quiet, one traced and one observed
/// pass each, then the probes.
pub fn per_layer(args: &RunArgs, process_start: Instant) -> Result<RunReport, String> {
    let mut setup = start(args, process_start)?;
    let out_dir = args.out_dir();
    let rounds = if args.smoke {
        1
    } else {
        rounds_for(args.seconds, setup.first.wall(), 3.0, 1)
    };
    let (mut quiet, mut traced, mut observed) = (Rounds::new(), Rounds::new(), Rounds::new());
    quiet.push(setup.first.seconds.clone());
    let mut best: Option<TracedPass> = None;
    for round in 0..rounds {
        if round > 0 {
            let pass = quiet_pass(&setup.bench, &out_dir);
            setup
                .failures
                .check_pass(&setup.bench, &pass, Some(&setup.first));
            quiet.push(pass.seconds);
        }

        // Comparing against the first round's records is the cross-check
        // that the traced loop's totals equal `measure_cell`'s for every cell.
        let t = traced_pass(&setup.bench, &out_dir);
        setup
            .failures
            .check_pass(&setup.bench, &t.pass, Some(&setup.first));
        traced.push(t.pass.seconds.clone());
        if best
            .as_ref()
            .map_or(true, |b| t.pass.wall() < b.pass.wall())
        {
            best = Some(t);
        }

        observed.push(observed_pass(&setup.bench, &out_dir).seconds);
    }
    let best = best.expect("at least one round");

    let mut report = base_report(args, &setup, rounds);
    let spans = best.tracer.spans();
    let wall_ns = best.pass.wall() * 1e9;
    let self_ns: u64 = self_times(spans).iter().sum();
    let miss = (self_ns as f64 - wall_ns).abs() / wall_ns;
    if miss > TRACE_SUM_TOLERANCE {
        report.problems.push(format!(
            "traced self times sum to {:.1} ms, the round took {:.1} ms",
            self_ns as f64 / 1e6,
            wall_ns / 1e6
        ));
    }
    let by_name = self_time_by_name(spans);
    report.layers = by_name
        .iter()
        .map(|(&(name, tag), &ns)| (name.to_string(), tag.to_string(), ns as f64 / 1e6))
        .collect();
    report.cells = best.cells.clone();
    report.info = vec![
        ("traced_round_s".to_string(), best.pass.wall()),
        ("traced_self_sum_s".to_string(), self_ns as f64 / 1e9),
        ("quiet_round_s".to_string(), quiet.quiet_round()),
    ];
    let trace_path = out_dir.join(format!("trace_{}.jsonl", args.workload));
    std::fs::write(&trace_path, to_jsonl(spans))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let span_ns = |name, tag| by_name.get(&(name, tag)).copied().unwrap_or(0) as f64;
    // 0 where the workload has no windows of that mode.
    let per_cycle = |ns: f64, cycles: u64| if cycles == 0 { 0.0 } else { ns / cycles as f64 };
    let c = &best.counts;
    let window = |mode| {
        per_cycle(
            span_ns("core.run_window", mode_tag(mode)),
            c.window_cycles[mode_index(mode)],
        )
    };
    use reunion_core::ExecutionMode::{NonRedundant, Reunion, Strict};
    let overhead = |other: &Rounds| (other.quiet_round() / quiet.quiet_round() - 1.0) * 100.0;
    let (slowest, slowest_s) = quiet.slowest_unit().ok_or("workload has no units")?;
    report.slowest_unit = setup.bench.unit_label(setup.bench.units[slowest]);
    let mut values: Vec<(&str, f64)> = vec![
        ("mem.l1_hits", c.l1_hits as f64),
        ("mem.l1_misses", c.l1_misses as f64),
        ("mem.l2_misses", c.l2_misses as f64),
        ("mem.phantom_requests", c.phantom_requests as f64),
        ("mem.xbar_port_waits", c.xbar_port_waits as f64),
        ("mem.bank_queue_stalls", c.bank_queue_stalls as f64),
        (
            "mem.l1_hit_rate",
            c.l1_hits as f64 / (c.l1_hits + c.l1_misses).max(1) as f64,
        ),
        ("cpu.retired_total", c.retired_total as f64),
        ("cpu.rollbacks", c.rollbacks as f64),
        ("cpu.intervals", c.intervals as f64),
        (
            "cpu.serializing_stall_cycles",
            c.serializing_stall_cycles as f64,
        ),
        ("core.system_new_ms", span_ns("core.system_new", "") / 1e6),
        (
            "core.run_warmup.ns_per_cycle",
            per_cycle(span_ns("core.run_warmup", ""), c.warmup_cycles),
        ),
        (
            "core.run_window.ns_per_cycle.nonredundant",
            window(NonRedundant),
        ),
        ("core.run_window.ns_per_cycle.strict", window(Strict)),
        ("core.run_window.ns_per_cycle.reunion", window(Reunion)),
        (
            "core.window_stats_us",
            span_ns("core.window_stats", "") / 1e3,
        ),
        (
            "core.skipped_cycle_share",
            c.skipped_cycles as f64 / c.simulated_cycles.max(1) as f64,
        ),
        ("core.recoveries", c.recoveries as f64),
        ("core.input_incoherence", c.input_incoherence as f64),
        ("core.sync_requests", c.sync_requests as f64),
        ("core.check_bus.messages", c.check_bus_messages as f64),
        ("core.check_bus.wait_cycles", c.check_bus_wait_cycles as f64),
        ("sim.record_emit_us", span_ns("sim.record_emit", "") / 1e3),
        ("sim.slowest_unit_ms", slowest_s * 1e3),
        ("obs.on_overhead_pct", overhead(&observed)),
        ("trace.overhead_pct", overhead(&traced)),
    ];
    values.extend(probes::run_all(
        &Prober::new(args.smoke),
        &flat_records(&setup.first),
        args.seed,
        &out_dir,
    ));
    report.metrics = PER_LAYER
        .iter()
        .map(|&spec| Measured {
            spec,
            value: values
                .iter()
                .find(|(name, _)| *name == spec.name)
                .map_or(f64::NAN, |&(_, v)| v),
            spread: None,
        })
        .collect();
    Ok(finish(report, setup.failures))
}

/// Prints a report for people, then the contract line last.
pub fn print(report: &RunReport) {
    println!(
        "workload {}  seed {}  rounds {}  cells {}",
        report.workload, report.seed, report.rounds, report.cells_attempted
    );
    for m in &report.metrics {
        println!("  {:<44} {:>16.4} {}", m.spec.name, m.value, m.spec.unit);
    }
    for (k, v) in &report.info {
        println!("  ({k} {v:.4})");
    }
    if !report.layers.is_empty() {
        let total: f64 = report.layers.iter().map(|l| l.2).sum();
        println!("  self time by span (traced round, sums to {total:.1} ms):");
        for (span, tag, ms) in &report.layers {
            let share = 100.0 * ms / total;
            println!("    {span:<22} {tag:<14} {ms:>10.2} ms {share:>6.2} %");
        }
        println!("  per cell (model system's windows):");
        for c in &report.cells {
            println!(
                "    {:<44} {:>9.1} ns/cycle {:>7} recoveries {:>5.1} % skipped",
                c.label,
                c.model_window_ns_per_cycle,
                c.recoveries,
                c.skipped_share * 100.0
            );
        }
    }
    if !report.slowest_unit.is_empty() {
        println!("  slowest unit: {}", report.slowest_unit);
    }
    println!("  sim_digest {:#018x}", report.sim_digest);
    match report.fidelity_err_pp {
        Some(err) => {
            println!("  fidelity_err_pp {err:.3} pp (simulated, against the paper's class means)")
        }
        None => println!("  fidelity: no reference for this workload, unvalidated"),
    }
    println!(
        "  cells_failed {} of {}",
        report.failures.len(),
        report.cells_attempted
    );
    for (cell, reason) in &report.failures {
        println!("    FAILED {cell}: {reason}");
    }
    for p in &report.problems {
        println!("    PROBLEM {p}");
    }
    println!("{}", report.contract_line());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::tests::record;
    use reunion_core::ExecutionMode;
    use reunion_workloads::WorkloadClass;

    #[test]
    fn round_count_follows_the_budget() {
        assert_eq!(rounds_for(12.0, 4.0, 1.0, 2), 3);
        assert_eq!(rounds_for(12.0, 5.0, 1.0, 2), 2);
        assert_eq!(rounds_for(20.0, 7.0, 1.0, 2), 3, "nearest, not floor");
        assert_eq!(
            rounds_for(3.0, 4.0, 1.0, 2),
            2,
            "never fewer than the floor"
        );
        assert_eq!(rounds_for(12.0, 4.0, 3.0, 1), 1);
        assert_eq!(rounds_for(60.0, 0.001, 1.0, 2), 50);
    }

    #[test]
    fn fidelity_is_the_mean_gap_to_the_papers_class_means() {
        let mut records = Vec::new();
        for (mode, commercial, sci) in [
            (ExecutionMode::Strict, 0.94, 0.98),
            (ExecutionMode::Reunion, 0.92, 0.90),
        ] {
            let mut c = record("apache", mode, commercial);
            c.class = WorkloadClass::Web;
            records.push(c);
            records.push(record("sparse", mode, sci));
        }
        // Gaps: 1, 0, 2, 2 percentage points.
        let err = fidelity_err_pp(&records).unwrap();
        assert!((err - 1.25).abs() < 1e-9, "{err}");
        // Smoke mode has commercial cells only: the mean is over those.
        let commercial: Vec<_> = records
            .iter()
            .filter(|r| r.class.is_commercial())
            .cloned()
            .collect();
        assert!((fidelity_err_pp(&commercial).unwrap() - 1.5).abs() < 1e-9);
        assert_eq!(fidelity_err_pp(&[]), None);
    }
}
