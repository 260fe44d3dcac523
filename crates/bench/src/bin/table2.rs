//! Table 2: application parameters of the workload suite.

use reunion_bench::{banner, run_and_emit, run_options, workloads};
use reunion_core::ExecutionMode;
use reunion_sim::{ExperimentGrid, Metric};

fn main() {
    let opts = run_options();
    banner("Table 2", "Application parameters (synthetic suite)");
    let grid = ExperimentGrid::builder("table2", "Application parameters (synthetic suite)")
        .metric(Metric::Static)
        .run_options(&opts)
        .sample(opts.sample())
        .workloads(workloads())
        .modes(&[ExecutionMode::NonRedundant])
        .build();
    let Some(report) = run_and_emit(&grid, &opts).into_report() else {
        return;
    };

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
