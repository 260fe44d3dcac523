//! Kernel suite: real-code assembly kernels (`asm/`) under Strict and
//! Reunion, on the 2-LP [`SystemConfig::kernel_pair`] system.
//!
//! This is the credibility check the synthetic suite cannot provide: the
//! same redundant-pair machinery measured on hand-written programs — three
//! algorithmic kernels and two racy multi-threaded protocols whose data
//! races drive genuine input incoherence.

use reunion_core::{ExecutionMode, SystemConfig};
use reunion_sim::{ExperimentReport, GridBuilder};

use crate::{kernel_workloads, RunOptions};

pub(super) fn axes(grid: GridBuilder, _: &RunOptions) -> GridBuilder {
    grid.base(SystemConfig::kernel_pair)
        .workloads(kernel_workloads())
        .modes(&[ExecutionMode::Strict, ExecutionMode::Reunion])
}

pub(super) fn print(report: &ExperimentReport) {
    println!(
        "{:<16} {:<11} {:>7} {:>9} {:>9} {:>12} {:>9}",
        "kernel", "class", "threads", "strict", "reunion", "incoh/1M", "base-IPC"
    );
    for w in kernel_workloads() {
        let threads = w.kernel_image().map_or(1, |image| image.threads());
        let strict = report
            .get(w.name(), ExecutionMode::Strict, "base")
            .and_then(|r| r.normalized())
            .expect("strict record");
        let reunion = report
            .get(w.name(), ExecutionMode::Reunion, "base")
            .and_then(|r| r.normalized())
            .expect("reunion record");
        println!(
            "{:<16} {:<11} {:>7} {:>9.3} {:>9.3} {:>12.1} {:>9.3}",
            w.name(),
            w.class().to_string(),
            threads,
            strict.normalized_ipc,
            reunion.normalized_ipc,
            reunion.model.incoherence_per_million,
            reunion.baseline.ipc,
        );
    }
}
