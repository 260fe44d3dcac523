//! Figure 7(b): Reunion commercial-workload average with hardware-managed
//! vs UltraSPARC III software-managed TLBs, across comparison latencies.

use reunion_core::ExecutionMode;
use reunion_cpu::TlbMode;
use reunion_sim::{ConfigPatch, ExperimentReport, GridBuilder};

use crate::{commercial_workloads, keyed_latency_label, RunOptions, SWEEP_LATENCIES};

const TLBS: [(&str, &str, TlbMode); 2] = [
    (
        "hw",
        "US III hardware TLB",
        TlbMode::Hardware { walk_latency: 30 },
    ),
    ("sw", "US III software TLB", TlbMode::Software),
];

pub(super) fn axes(grid: GridBuilder, _: &RunOptions) -> GridBuilder {
    let mut patches = Vec::new();
    for (key, _, tlb) in TLBS {
        for &latency in &SWEEP_LATENCIES {
            patches.push(
                ConfigPatch::new(keyed_latency_label(key, latency))
                    .tlb(tlb)
                    .latency(latency),
            );
        }
    }
    grid.workloads(commercial_workloads())
        .modes(&[ExecutionMode::Reunion])
        .patches(patches)
}

pub(super) fn print(report: &ExperimentReport) {
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "tlb model", "lat=0", "lat=10", "lat=20", "lat=30", "lat=40"
    );
    for (key, label, _) in TLBS {
        print!("{label:<22}");
        for &latency in &SWEEP_LATENCIES {
            let avg = report.mean_normalized_where(
                ExecutionMode::Reunion,
                &keyed_latency_label(key, latency),
                |c| c.is_commercial(),
            );
            print!(" {avg:>8.3}");
        }
        println!();
    }
    println!("--------------------------------------------------------------");
    println!("(paper: the software-managed handler's serializing traps and");
    println!(" non-idempotent MMU accesses grow the penalty to ~28% at 40 cy.)");
}
