//! §5.5 consistency-model ablation: under sequential consistency every
//! store carries membar semantics and serializes retirement; the paper
//! reports >60% average loss at a 40-cycle comparison latency.

use reunion_core::ExecutionMode;
use reunion_cpu::Consistency;

use crate::{
    commercial_workloads, keyed_latency_label, ConfigPatch, ExperimentReport, GridBuilder,
    RunOptions, SWEEP_LATENCIES,
};

const MODELS: [(&str, &str, Consistency); 2] = [
    ("tso", "Sun TSO", Consistency::Tso),
    ("sc", "SC", Consistency::Sc),
];

pub(super) fn axes(grid: GridBuilder, _: &RunOptions) -> GridBuilder {
    let mut patches = Vec::new();
    for (key, _, model) in MODELS {
        for &latency in &SWEEP_LATENCIES {
            patches.push(
                ConfigPatch::new(keyed_latency_label(key, latency))
                    .consistency(model)
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
        "{:<14} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "consistency", "lat=0", "lat=10", "lat=20", "lat=30", "lat=40"
    );
    for (key, label, _) in MODELS {
        print!("{label:<14}");
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
    println!("(paper: SC loses >60% at 40 cycles from store serialization.)");
}
