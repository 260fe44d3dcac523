//! §5.5 consistency-model ablation: under sequential consistency every
//! store carries membar semantics and serializes retirement; the paper
//! reports >60% average loss at a 40-cycle comparison latency.

use reunion_cpu::Consistency;

use super::KeyedSweep;
use crate::{ConfigPatch, ExperimentReport, GridBuilder, RunOptions};

const SWEEP: KeyedSweep<Consistency> = KeyedSweep {
    rows: &[
        ("tso", "Sun TSO", Consistency::Tso),
        ("sc", "SC", Consistency::Sc),
    ],
    set: ConfigPatch::consistency,
    header: "consistency",
    width: 14,
    note: &["(paper: SC loses >60% at 40 cycles from store serialization.)"],
};

pub(super) fn axes(grid: GridBuilder, _: &RunOptions) -> GridBuilder {
    SWEEP.axes(grid)
}

pub(super) fn print(report: &ExperimentReport) {
    SWEEP.print(report);
}
