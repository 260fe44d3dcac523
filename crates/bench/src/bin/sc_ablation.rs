//! §5.5 consistency-model ablation: under sequential consistency every
//! store carries membar semantics and serializes retirement; the paper
//! reports >60% average loss at a 40-cycle comparison latency.

use reunion_bench::{
    banner, commercial_workloads, keyed_latency_label, run_and_emit, run_options, SWEEP_LATENCIES,
};
use reunion_core::ExecutionMode;
use reunion_cpu::Consistency;
use reunion_sim::{ConfigPatch, ExperimentGrid};

const MODELS: [(&str, &str, Consistency); 2] = [
    ("tso", "Sun TSO", Consistency::Tso),
    ("sc", "SC", Consistency::Sc),
];

fn main() {
    let opts = run_options();
    banner(
        "SC ablation (§5.5)",
        "Reunion commercial average under TSO vs sequential consistency",
    );
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
    let grid = ExperimentGrid::builder(
        "sc_ablation",
        "Reunion commercial average under TSO vs sequential consistency",
    )
    .run_options(&opts)
    .sample(opts.sample())
    .workloads(commercial_workloads())
    .modes(&[ExecutionMode::Reunion])
    .patches(patches)
    .build();
    let Some(report) = run_and_emit(&grid, &opts).into_report() else {
        return;
    };

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
