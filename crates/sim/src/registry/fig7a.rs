//! Figure 7(a): Reunion performance under each phantom-request strength
//! (10-cycle comparison latency), normalized to the non-redundant baseline.

use reunion_core::ExecutionMode;
use reunion_mem::PhantomStrength;
use reunion_workloads::suite;

use crate::{ConfigPatch, ExperimentReport, GridBuilder, RunOptions};

/// The phantom-request strengths, strongest first (shared with Table 3).
pub(super) const STRENGTHS: [PhantomStrength; 3] = [
    PhantomStrength::Global,
    PhantomStrength::Shared,
    PhantomStrength::Null,
];

pub(super) fn axes(grid: GridBuilder, _: &RunOptions) -> GridBuilder {
    grid.workloads(suite())
        .modes(&[ExecutionMode::Reunion])
        .patches(
            STRENGTHS
                .iter()
                .map(|&s| ConfigPatch::new(s.to_string()).phantom(s))
                .collect(),
        )
}

pub(super) fn print(report: &ExperimentReport) {
    println!(
        "{:<12} {:>9} {:>9} {:>9}",
        "workload", "global", "shared", "null"
    );
    for w in suite() {
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
