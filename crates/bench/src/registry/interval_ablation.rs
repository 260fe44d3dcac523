//! §4.3 fingerprint-interval ablation: the paper finds the performance
//! difference between intervals of 1 and 50 instructions insignificant.

use reunion_core::ExecutionMode;
use reunion_sim::{ConfigPatch, ExperimentReport, GridBuilder};

use crate::{workloads, RunOptions};

const INTERVALS: [u32; 3] = [1, 5, 50];

fn interval_label(interval: u32) -> String {
    format!("ival={interval}")
}

pub(super) fn axes(grid: GridBuilder, _: &RunOptions) -> GridBuilder {
    grid.workloads(workloads())
        .modes(&[ExecutionMode::Reunion])
        .patches(
            INTERVALS
                .iter()
                .map(|&i| ConfigPatch::new(interval_label(i)).fingerprint_interval(i))
                .collect(),
        )
}

pub(super) fn print(report: &ExperimentReport) {
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
