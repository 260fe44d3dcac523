//! Scaling study (beyond the paper): Reunion normalized IPC as the CMP
//! grows from 1 to 16 logical-processor pairs, under a banked, arbitrated
//! L2 and a shared check-bus bandwidth model.
//!
//! The paper evaluates a fixed 4-pair CMP (Table 1) where the only
//! cross-pair coupling is L2 bank occupancy. This grid turns on the two
//! contention models that matter at larger core counts — a bounded
//! L1↔L2 crossbar with per-bank queues ([`reunion_mem::BankedArbiter`])
//! and a shared fingerprint interconnect
//! ([`reunion_core::CheckBus`]) — and sweeps:
//!
//! * **pairs**: 1, 2, 4, 8, 16 (the 4-pair column reproduces the paper's
//!   operating point; 8 and 16 extrapolate),
//! * **check bandwidth**: `bw0` = private per-pair channels (the paper's
//!   implicit model), `bw2` = one shared bus accepting a fingerprint
//!   message every 2 cycles,
//! * **comparison latency**: 10 (Table 1) and 40 cycles (the far end of
//!   Figure 6's sweep, where serializing round trips hurt most).
//!
//! L2 capacity/bandwidth scales with the core count via
//! [`reunion_mem::MemConfig::scaled_for_cores`], so the study isolates
//! *contention and arbitration* effects rather than capacity starvation.

use reunion_core::{ExecutionMode, SystemConfig};
use reunion_workloads::Workload;

use crate::{ConfigPatch, ExperimentReport, GridBuilder, RunOptions};

/// Pair counts of the sweep; 4 is the paper's CMP.
const PAIRS: [usize; 5] = [1, 2, 4, 8, 16];
/// Check-bus occupancies: 0 = private channels, 2 = shared bus.
const CHECK_BW: [u64; 2] = [0, 2];
/// One-way comparison latencies (cycles).
const LATENCIES: [u64; 2] = [10, 40];

/// Canonical patch label for one scaling point (`"p8:bw2:lat=40"`).
fn scaling_label(pairs: usize, bw: u64, latency: u64) -> String {
    format!("p{pairs}:bw{bw}:lat={latency}")
}

/// Table 1 plus the contention models the larger machines need: a 4-port
/// L1↔L2 crossbar and 4-deep per-bank queues. At 4 pairs these bounds are
/// wide enough that the paper's operating point is effectively uncontended;
/// at 16 pairs they are the story.
fn scaling_base(mode: ExecutionMode) -> SystemConfig {
    let cfg = SystemConfig::table1(mode).with_seed(0x5EED_0009);
    let mem = cfg.mem.clone().with_xbar_ports(4).with_bank_queue_depth(4);
    cfg.with_mem(mem)
}

fn workload_pair() -> Vec<Workload> {
    vec![
        Workload::by_name("apache").expect("in suite"),
        Workload::by_name("moldyn").expect("in suite"),
    ]
}

pub(super) fn axes(grid: GridBuilder, _: &RunOptions) -> GridBuilder {
    let mut patches = Vec::with_capacity(PAIRS.len() * CHECK_BW.len() * LATENCIES.len());
    for &pairs in &PAIRS {
        for &bw in &CHECK_BW {
            for &latency in &LATENCIES {
                patches.push(
                    ConfigPatch::new(scaling_label(pairs, bw, latency))
                        .logical_processors(pairs)
                        .check_bandwidth(bw)
                        .latency(latency),
                );
            }
        }
    }
    grid.base(scaling_base)
        .workloads(workload_pair())
        .modes(&[ExecutionMode::Reunion])
        .patches(patches)
}

pub(super) fn print(report: &ExperimentReport) {
    for w in workload_pair() {
        println!();
        println!("{} ({})", w.name(), w.class());
        println!(
            "{:<7} {:>10} {:>10} {:>10} {:>10}",
            "pairs", "bw0:lat10", "bw0:lat40", "bw2:lat10", "bw2:lat40"
        );
        for &pairs in &PAIRS {
            print!("{pairs:<7}");
            for &bw in &CHECK_BW {
                for &latency in &LATENCIES {
                    let n = report
                        .get(
                            w.name(),
                            ExecutionMode::Reunion,
                            &scaling_label(pairs, bw, latency),
                        )
                        .and_then(|r| r.normalized())
                        .expect("scaling record");
                    print!(" {:>10.3}", n.normalized_ipc);
                }
            }
            println!();
        }
    }
    println!();
    println!("(bw0 = private check channels, bw2 = shared bus, 1 msg / 2 cycles;");
    println!(" each cell is normalized against a non-redundant CMP of the same");
    println!(" pair count, so the columns isolate redundancy overhead, not");
    println!(" workload scaling. 4 pairs = the paper's Table 1 machine.)");
}
