//! Figure 7(a): Reunion performance under each phantom-request strength
//! (10-cycle comparison latency), normalized to the non-redundant baseline.

use reunion_bench::{banner, run_and_emit, run_options, workloads};
use reunion_core::ExecutionMode;
use reunion_mem::PhantomStrength;
use reunion_sim::{ConfigPatch, ExperimentGrid};

const STRENGTHS: [PhantomStrength; 3] = [
    PhantomStrength::Global,
    PhantomStrength::Shared,
    PhantomStrength::Null,
];

fn main() {
    let opts = run_options();
    banner(
        "Figure 7(a)",
        "Reunion normalized IPC per phantom strength (10-cycle latency)",
    );
    let grid = ExperimentGrid::builder(
        "fig7a",
        "Reunion normalized IPC per phantom strength (10-cycle latency)",
    )
    .run_options(&opts)
    .sample(opts.sample())
    .workloads(workloads())
    .modes(&[ExecutionMode::Reunion])
    .patches(
        STRENGTHS
            .iter()
            .map(|&s| ConfigPatch::new(s.to_string()).phantom(s))
            .collect(),
    )
    .build();
    let Some(report) = run_and_emit(&grid, &opts).into_report() else {
        return;
    };

    println!(
        "{:<12} {:>9} {:>9} {:>9}",
        "workload", "global", "shared", "null"
    );
    for w in workloads() {
        print!("{:<12}", w.name());
        for strength in STRENGTHS {
            let n = report
                .get(w.name(), ExecutionMode::Reunion, &strength.to_string())
                .and_then(|r| r.normalized_ipc())
                .expect("record for every strength");
            print!(" {n:>9.3}");
        }
        println!();
    }
    println!("--------------------------------------------------------------");
    println!("(paper: global >> shared >> null; em3d collapses under shared");
    println!(" because its working set exceeds the shared cache.)");
}
