//! Figure 7(b): Reunion commercial-workload average with hardware-managed
//! vs UltraSPARC III software-managed TLBs, across comparison latencies.

use reunion_cpu::TlbMode;

use super::KeyedSweep;
use crate::{ConfigPatch, ExperimentReport, GridBuilder, RunOptions};

const SWEEP: KeyedSweep<TlbMode> = KeyedSweep {
    rows: &[
        (
            "hw",
            "US III hardware TLB",
            TlbMode::Hardware { walk_latency: 30 },
        ),
        ("sw", "US III software TLB", TlbMode::Software),
    ],
    set: ConfigPatch::tlb,
    header: "tlb model",
    width: 22,
    note: &[
        "(paper: the software-managed handler's serializing traps and",
        " non-idempotent MMU accesses grow the penalty to ~28% at 40 cy.)",
    ],
};

pub(super) fn axes(grid: GridBuilder, _: &RunOptions) -> GridBuilder {
    SWEEP.axes(grid)
}

pub(super) fn print(report: &ExperimentReport) {
    SWEEP.print(report);
}
