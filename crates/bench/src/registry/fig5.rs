//! Figure 5: baseline performance of Strict and Reunion, normalized to the
//! non-redundant CMP, at a 10-cycle comparison latency.

use reunion_core::ExecutionMode;
use reunion_sim::{ExperimentReport, GridBuilder};

use crate::{commercial_scientific_averages, rate_with_ci95, workloads, RunOptions};

pub(super) fn axes(grid: GridBuilder, _: &RunOptions) -> GridBuilder {
    grid.workloads(workloads())
        .modes(&[ExecutionMode::Strict, ExecutionMode::Reunion])
}

pub(super) fn print(report: &ExperimentReport) {
    println!(
        "{:<12} {:<11} {:>9} {:>9} {:>24} {:>9}",
        "workload", "class", "strict", "reunion", "incoh/1M [95 %]", "base-IPC"
    );
    for w in workloads() {
        let strict = report
            .get(w.name(), ExecutionMode::Strict, "base")
            .and_then(|r| r.normalized())
            .expect("strict record");
        let reunion = report
            .get(w.name(), ExecutionMode::Reunion, "base")
            .and_then(|r| r.normalized())
            .expect("reunion record");
        println!(
            "{:<12} {:<11} {:>9.3} {:>9.3} {:>24} {:>9.3}",
            w.name(),
            w.class().to_string(),
            strict.normalized_ipc,
            reunion.normalized_ipc,
            rate_with_ci95(
                reunion.model.input_incoherence,
                reunion.model.user_instructions
            ),
            reunion.baseline.ipc,
        );
    }
    let (sc, ss) =
        commercial_scientific_averages(&report.normalized_rows(ExecutionMode::Strict, "base"));
    let (rc, rs) =
        commercial_scientific_averages(&report.normalized_rows(ExecutionMode::Reunion, "base"));
    println!("{}", "-".repeat(78));
    println!("average normalized IPC   commercial   scientific");
    println!("  strict                 {sc:>10.3} {ss:>12.3}   (paper: 0.95 / 0.98)");
    println!("  reunion                {rc:>10.3} {rs:>12.3}   (paper: 0.90 / 0.92)");
    println!("(incoh/1M: events /1M instructions [exact Poisson 95 % interval]; no");
    println!(" events print as < the interval's upper end.)");
}
