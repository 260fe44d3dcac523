//! Table 2: application parameters of the workload suite.

use reunion_core::ExecutionMode;
use reunion_sim::{ExperimentReport, GridBuilder, Metric};

use crate::{workloads, RunOptions};

pub(super) fn axes(grid: GridBuilder, _: &RunOptions) -> GridBuilder {
    grid.metric(Metric::Static)
        .workloads(workloads())
        .modes(&[ExecutionMode::NonRedundant])
}

pub(super) fn print(report: &ExperimentReport) {
    println!(
        "{:<12} {:<11} {:>9} {:>9} {:>6} {:>7} {:>9} {:>10}",
        "workload", "class", "priv(MB)", "shrd(MB)", "locks", "cs-len", "itlb/1M", "static-len"
    );
    for r in report.rows(ExecutionMode::NonRedundant, "base") {
        let s = r.statics().expect("static record");
        println!(
            "{:<12} {:<11} {:>9.1} {:>9.1} {:>6} {:>7} {:>9} {:>10}",
            r.workload,
            r.class.to_string(),
            s.private_bytes as f64 / (1 << 20) as f64,
            s.shared_bytes as f64 / (1 << 20) as f64,
            s.locks,
            s.critical_section_len,
            s.itlb_miss_per_million,
            s.static_len,
        );
    }
}
