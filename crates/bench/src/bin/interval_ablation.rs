//! §4.3 fingerprint-interval ablation: the paper finds the performance
//! difference between intervals of 1 and 50 instructions insignificant.

use reunion_bench::{banner, run_and_emit, run_options, workloads};
use reunion_core::ExecutionMode;
use reunion_sim::{ConfigPatch, ExperimentGrid};

const INTERVALS: [u32; 3] = [1, 5, 50];

fn interval_label(interval: u32) -> String {
    format!("ival={interval}")
}

fn main() {
    let opts = run_options();
    banner(
        "Fingerprint-interval ablation (§4.3)",
        "Reunion normalized IPC vs fingerprint interval (10-cycle latency)",
    );
    let grid = ExperimentGrid::builder(
        "interval_ablation",
        "Reunion normalized IPC vs fingerprint interval (10-cycle latency)",
    )
    .run_options(&opts)
    .sample(opts.sample())
    .workloads(workloads())
    .modes(&[ExecutionMode::Reunion])
    .patches(
        INTERVALS
            .iter()
            .map(|&i| ConfigPatch::new(interval_label(i)).fingerprint_interval(i))
            .collect(),
    )
    .build();
    let Some(report) = run_and_emit(&grid, &opts).into_report() else {
        return;
    };

    println!(
        "{:<12} {:>9} {:>9} {:>9}",
        "workload", "ival=1", "ival=5", "ival=50"
    );
    for w in workloads() {
        print!("{:<12}", w.name());
        for &interval in &INTERVALS {
            let n = report
                .get(w.name(), ExecutionMode::Reunion, &interval_label(interval))
                .and_then(|r| r.normalized_ipc())
                .expect("record for every interval");
            print!(" {n:>9.3}");
        }
        println!();
    }
    println!("--------------------------------------------------------------");
    println!("(paper: intervals of 1 and 50 perform indistinguishably because");
    println!(" useful computation continues to the end of the interval.)");
}
