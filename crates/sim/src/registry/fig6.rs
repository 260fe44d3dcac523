//! Figure 6: sensitivity of (a) Strict and (b) Reunion to the inter-core
//! comparison latency (0–40 cycles), averaged per workload class.

use reunion_core::ExecutionMode;
use reunion_workloads::{suite, WorkloadClass};

use crate::{
    banner, class_averages, latency_label, ConfigPatch, ExperimentReport, GridBuilder, RunOptions,
    SWEEP_LATENCIES,
};

fn panel(report: &ExperimentReport, mode: ExecutionMode) {
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "class", "lat=0", "lat=10", "lat=20", "lat=30", "lat=40"
    );
    let mut per_class: Vec<Vec<f64>> = vec![Vec::new(); WorkloadClass::ALL.len()];
    for &latency in &SWEEP_LATENCIES {
        let rows = report.normalized_rows(mode, &latency_label(latency));
        for (i, (_, mean)) in class_averages(&rows).into_iter().enumerate() {
            per_class[i].push(mean);
        }
    }
    for (i, class) in WorkloadClass::ALL.iter().enumerate() {
        print!("{:<10}", class.to_string());
        for v in &per_class[i] {
            print!(" {v:>8.3}");
        }
        println!();
    }
}

pub(super) fn axes(grid: GridBuilder, _: &RunOptions) -> GridBuilder {
    grid.workloads(suite())
        .modes(&[ExecutionMode::Strict, ExecutionMode::Reunion])
        .patches(
            SWEEP_LATENCIES
                .iter()
                .map(|&l| ConfigPatch::new(latency_label(l)).latency(l))
                .collect(),
        )
}

pub(super) fn print(report: &ExperimentReport) {
    banner(
        "Figure 6(a)",
        "Strict input replication vs comparison latency (normalized IPC)",
    );
    panel(report, ExecutionMode::Strict);
    println!();
    banner(
        "Figure 6(b)",
        "Reunion vs comparison latency (normalized IPC)",
    );
    panel(report, ExecutionMode::Reunion);
    println!();
    println!("(paper: both degrade roughly linearly; Strict ~1.0 at lat 0,");
    println!(" Reunion below 1.0 at lat 0 from loose coupling + contention;");
    println!(" at 40 cycles: Strict 17%/11% penalty, Reunion 22%/13%.)");
}
