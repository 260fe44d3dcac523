//! Untraced passes over a workload's units, the `cells_failed` rules and
//! the simulated-output digest.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use reunion_core::{CmpSystem, ExecutionMode, NormalizedResult, ObsConfig};
use reunion_isa::Addr;
use reunion_sim::{
    measure_cell, merge_manifests, parse_json, read_manifest, Cell, ExperimentGrid,
    ExperimentReport, JsonValue, ManifestHeader, NormalizedSummary, Outcome, RunRecord, Runner,
    ShardManifest, ShardSpec,
};

use crate::grids::{cell_label, Unit, Workbench};

/// quicksort.asm's self-check counters: verified passes, failed passes.
const QUICKSORT_PASSES: u64 = 0x4000_2000;
const QUICKSORT_FAILURES: u64 = 0x4000_2008;

/// One pass over every unit: seconds and records per unit (`None` where
/// the unit panicked).
pub struct Pass {
    pub seconds: Vec<f64>,
    pub records: Vec<Option<Vec<RunRecord>>>,
}

impl Pass {
    pub fn wall(&self) -> f64 {
        self.seconds.iter().sum()
    }
}

/// Runs `run` on every unit, timing each call and catching its panics.
pub fn pass_with(
    bench: &Workbench,
    mut run: impl FnMut(Unit) -> Result<Vec<RunRecord>, String>,
) -> Pass {
    let mut pass = Pass {
        seconds: Vec::with_capacity(bench.units.len()),
        records: Vec::with_capacity(bench.units.len()),
    };
    for &unit in &bench.units {
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| run(unit)));
        pass.seconds.push(start.elapsed().as_secs_f64());
        pass.records.push(match outcome {
            Ok(Ok(records)) => Some(records),
            Ok(Err(e)) => {
                eprintln!("unit {} failed: {e}", bench.unit_label(unit));
                None
            }
            Err(_) => {
                eprintln!("unit {} panicked", bench.unit_label(unit));
                None
            }
        });
    }
    pass
}

/// The untraced pass every end-to-end number comes from.
pub fn quiet_pass(bench: &Workbench, out_dir: &Path) -> Pass {
    pass_with(bench, |unit| {
        let grid = &bench.grids[unit.grid];
        match unit.cell {
            Some(c) => Ok(vec![measure_cell(grid, &grid.cells()[c])]),
            None => {
                let report = Runner::serial().run(grid);
                pipeline_tail(grid, &report, out_dir, &mut |_, f| f())?;
                Ok(report.records)
            }
        }
    })
}

/// Everything a pipeline unit does after simulating: report JSON out to
/// `out_dir` and back through the parser, then the same records through a
/// shard manifest (append, load, merge), checking each stage reproduces
/// the report. `stage` wraps every step so the traced run can put a span
/// around it.
pub fn pipeline_tail(
    grid: &ExperimentGrid,
    report: &ExperimentReport,
    out_dir: &Path,
    stage: &mut dyn FnMut(&'static str, &mut dyn FnMut()),
) -> Result<(), String> {
    let mut json = String::new();
    stage("sim.to_json", &mut || json = report.to_json());

    let path = out_dir.join(format!("PIPE_{}.json", grid.id()));
    let mut text = Err("not read".to_string());
    stage("sim.file_io", &mut || {
        text = std::fs::write(&path, &json)
            .and_then(|()| std::fs::read_to_string(&path))
            .map_err(|e| format!("{}: {e}", path.display()));
    });
    let text = text?;

    let mut parsed = None;
    stage("sim.parse_json", &mut || parsed = Some(parse_json(&text)));
    let parsed = parsed.expect("stage ran").map_err(|e| e.to_string())?;
    match parsed.get("records") {
        Some(JsonValue::Array(items)) if items.len() == report.records.len() => {}
        _ => return Err("parsed report lost records".to_string()),
    }

    let header = ManifestHeader {
        id: grid.id().to_string(),
        caption: grid.caption().to_string(),
        shard: ShardSpec::single(),
        cells: grid.cells().len(),
        sample: *grid.sample(),
        sample_overrides: grid.sample_overrides().to_vec(),
        obs: ObsConfig::default(),
    };
    let manifest_path = out_dir.join(header.shard.manifest_file_name(&header.id));
    // A manifest left by the previous round would be resumed, not rewritten.
    let _ = std::fs::remove_file(&manifest_path);
    let mut appended = Ok(());
    stage("sim.manifest", &mut || {
        appended = (|| {
            let mut manifest = ShardManifest::create_or_resume(out_dir, header.clone())
                .map_err(|e| e.to_string())?;
            for (i, record) in report.records.iter().enumerate() {
                manifest.append(i, record).map_err(|e| e.to_string())?;
            }
            let (_, loaded) = read_manifest(&manifest_path)?;
            if loaded.len() != report.records.len() {
                return Err("manifest lost records".to_string());
            }
            Ok(())
        })();
    });
    appended?;

    let mut merged = None;
    stage("sim.merge", &mut || {
        merged = Some(merge_manifests(std::slice::from_ref(&manifest_path)));
    });
    let merged = merged.expect("stage ran").map_err(|e| e.to_string())?;
    if merged.to_json() != json {
        return Err("merged manifest differs from the report".to_string());
    }
    Ok(())
}

/// `records` as the report `Runner::run` would assemble for `grid`.
pub fn report_of(grid: &ExperimentGrid, records: Vec<RunRecord>) -> ExperimentReport {
    ExperimentReport {
        id: grid.id().to_string(),
        caption: grid.caption().to_string(),
        sample: *grid.sample(),
        sample_overrides: grid.sample_overrides().to_vec(),
        records,
    }
}

/// The record `measure_cell` would make of `result`.
pub fn record_of(cell: &Cell, result: &NormalizedResult) -> RunRecord {
    RunRecord {
        workload: cell.workload.name().to_string(),
        class: cell.workload.class(),
        mode: cell.mode,
        patch: cell.patch.label().to_string(),
        outcome: Outcome::Normalized(Box::new(NormalizedSummary::from(result))),
    }
}

/// Why a finished cell counts as failed, if it does.
pub fn record_failure(record: &RunRecord) -> Option<&'static str> {
    let Some(n) = record.normalized() else {
        return Some("no normalized measurement");
    };
    if !n.normalized_ipc.is_finite() {
        return Some("normalized IPC is not finite");
    }
    if record.mode == ExecutionMode::Strict && n.model.recoveries > 0 {
        return Some("a Strict cell reports recoveries");
    }
    None
}

/// Failed cells by label, with the first reason seen for each.
#[derive(Debug, Default)]
pub struct Failures {
    by_cell: BTreeMap<String, String>,
}

impl Failures {
    pub fn note(&mut self, cell: String, reason: &str) {
        self.by_cell
            .entry(cell)
            .or_insert_with(|| reason.to_string());
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &String)> {
        self.by_cell.iter()
    }

    /// Applies the per-pass rules: a unit that panicked or errored fails
    /// all its cells; a record that differs from the reference pass's is
    /// non-deterministic; [`record_failure`] covers the rest.
    pub fn check_pass(&mut self, bench: &Workbench, pass: &Pass, reference: Option<&Pass>) {
        for (u, &unit) in bench.units.iter().enumerate() {
            let grid = &bench.grids[unit.grid];
            let cells = bench.unit_cells(unit);
            let Some(records) = &pass.records[u] else {
                for cell in cells {
                    self.note(cell_label(grid, cell), "panicked or errored");
                }
                continue;
            };
            for (i, (cell, record)) in cells.iter().zip(records).enumerate() {
                if let Some(reason) = record_failure(record) {
                    self.note(cell_label(grid, cell), reason);
                }
                let first = reference.and_then(|p| p.records[u].as_ref());
                if first.is_some_and(|first| first[i] != *record) {
                    self.note(cell_label(grid, cell), "record differs between rounds");
                }
            }
        }
    }
}

/// Runs a quicksort cell's model system for its whole sampling schedule
/// and reads the kernel's own verdict out of simulated memory: at least
/// one verified pass, no failed one.
pub fn quicksort_self_check(grid: &ExperimentGrid, cell: &Cell) -> Result<(), String> {
    let sample = grid.cell_sample(cell);
    let mut sys = CmpSystem::new(&grid.cell_config(cell), &cell.workload);
    sys.run(sample.warmup + sample.window * sample.windows as u64);
    let passes = sys.memory().peek_coherent(Addr::new(QUICKSORT_PASSES));
    let failures = sys.memory().peek_coherent(Addr::new(QUICKSORT_FAILURES));
    if passes == 0 || failures != 0 {
        return Err(format!("{passes} verified passes, {failures} failed"));
    }
    Ok(())
}

/// Self-checks every quicksort cell of the workload.
pub fn self_checks(bench: &Workbench, failures: &mut Failures) {
    for &unit in &bench.units {
        let grid = &bench.grids[unit.grid];
        for cell in bench.unit_cells(unit) {
            if cell.workload.name() != "quicksort" {
                continue;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| quicksort_self_check(grid, cell)));
            if !matches!(outcome, Ok(Ok(()))) {
                eprintln!("quicksort self-check: {outcome:?}");
                failures.note(cell_label(grid, cell), "quicksort self-check failed");
            }
        }
    }
}

/// Simulated user instructions of one pass, model and baseline sides.
pub fn simulated_instructions(pass: &Pass) -> u64 {
    pass.records
        .iter()
        .flatten()
        .flatten()
        .filter_map(RunRecord::normalized)
        .map(|n| n.model.user_instructions + n.baseline.user_instructions)
        .sum()
}

/// FNV-1a (64-bit) over the report JSON of each grid's records, in grid
/// order: equal digests mean byte-identical simulated output.
pub fn sim_digest(bench: &Workbench, pass: &Pass) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (g, grid) in bench.grids.iter().enumerate() {
        let records = bench
            .units
            .iter()
            .zip(&pass.records)
            .filter(|(u, _)| u.grid == g)
            .filter_map(|(_, r)| r.as_ref())
            .flatten()
            .cloned()
            .collect();
        for byte in report_of(grid, records).to_json().bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use reunion_sim::MeasureSummary;
    use reunion_workloads::WorkloadClass;

    pub fn blank_measure(ipc: f64) -> MeasureSummary {
        MeasureSummary {
            ipc,
            ipc_ci95: 0.0,
            user_instructions: 1_000,
            cycles: 2_000,
            mismatches: 0,
            input_incoherence: 0,
            recoveries: 0,
            phase2: 0,
            failures: 0,
            sync_requests: 0,
            tlb_misses: 0,
            phantom_garbage_fills: 0,
            serializing_stall_cycles: 0,
            reexec_penalty_cycles: 0,
            incoherence_per_million: 0.0,
            tlb_misses_per_million: 0.0,
            obs: None,
        }
    }

    pub fn record(workload: &str, mode: ExecutionMode, normalized_ipc: f64) -> RunRecord {
        RunRecord {
            workload: workload.into(),
            class: WorkloadClass::Scientific,
            mode,
            patch: "base".into(),
            outcome: Outcome::Normalized(Box::new(NormalizedSummary {
                normalized_ipc,
                ci95: 0.0,
                model: blank_measure(normalized_ipc),
                baseline: blank_measure(1.0),
            })),
        }
    }

    #[test]
    fn healthy_records_pass() {
        assert_eq!(
            record_failure(&record("sparse", ExecutionMode::Reunion, 0.9)),
            None
        );
        assert_eq!(
            record_failure(&record("sparse", ExecutionMode::Strict, 0.97)),
            None
        );
    }

    #[test]
    fn non_finite_ipc_fails() {
        for bad in [f64::NAN, f64::INFINITY] {
            let r = record("sparse", ExecutionMode::Reunion, bad);
            assert_eq!(record_failure(&r), Some("normalized IPC is not finite"));
        }
    }

    #[test]
    fn strict_recoveries_fail_but_reunion_recoveries_do_not() {
        let recovering = |mode| {
            let mut r = record("sparse", mode, 0.9);
            if let Outcome::Normalized(n) = &mut r.outcome {
                n.model.recoveries = 3;
            }
            r
        };
        assert_eq!(
            record_failure(&recovering(ExecutionMode::Strict)),
            Some("a Strict cell reports recoveries")
        );
        assert_eq!(record_failure(&recovering(ExecutionMode::Reunion)), None);
    }

    #[test]
    fn a_record_without_a_matched_pair_fails() {
        let mut r = record("sparse", ExecutionMode::Reunion, 0.9);
        r.outcome = Outcome::Raw(Box::new(blank_measure(1.0)));
        assert_eq!(record_failure(&r), Some("no normalized measurement"));
    }

    #[test]
    fn passes_are_checked_against_the_reference_round() {
        let bench = Workbench::build("paper_grid", 1, true).unwrap();
        let good = || {
            vec![
                Some(vec![record("apache", ExecutionMode::Strict, 0.95)]),
                Some(vec![record("apache", ExecutionMode::Reunion, 0.9)]),
            ]
        };
        let first = Pass {
            seconds: vec![1.0, 1.0],
            records: good(),
        };
        let mut failures = Failures::default();
        failures.check_pass(&bench, &first, None);
        assert_eq!(failures.iter().count(), 0);

        // Round 2: cell 0 panicked, cell 1 came back different.
        let mut records = good();
        records[0] = None;
        records[1] = Some(vec![record("apache", ExecutionMode::Reunion, 0.91)]);
        let second = Pass {
            seconds: vec![1.0, 1.0],
            records,
        };
        failures.check_pass(&bench, &second, Some(&first));
        let seen: Vec<_> = failures
            .iter()
            .map(|(c, r)| (c.as_str(), r.as_str()))
            .collect();
        assert_eq!(
            seen,
            vec![
                ("fig5/apache/reunion/base", "record differs between rounds"),
                ("fig5/apache/strict/base", "panicked or errored"),
            ]
        );
        // A cell failing twice still counts once.
        failures.check_pass(&bench, &second, Some(&first));
        assert_eq!(failures.iter().count(), 2);
    }

    #[test]
    fn digest_and_instruction_count_follow_the_records() {
        let bench = Workbench::build("paper_grid", 1, true).unwrap();
        let pass = |ipc| Pass {
            seconds: vec![1.0, 1.0],
            records: vec![
                Some(vec![record("apache", ExecutionMode::Strict, 0.95)]),
                Some(vec![record("apache", ExecutionMode::Reunion, ipc)]),
            ],
        };
        assert_eq!(simulated_instructions(&pass(0.9)), 4_000);
        assert_eq!(
            sim_digest(&bench, &pass(0.9)),
            sim_digest(&bench, &pass(0.9))
        );
        assert_ne!(
            sim_digest(&bench, &pass(0.9)),
            sim_digest(&bench, &pass(0.91))
        );
    }
}
