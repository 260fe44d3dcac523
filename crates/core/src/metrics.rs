//! Result types for the evaluation harness.

use reunion_kernel::obs::{ObsReport, TraceEvent};

use crate::SystemStats;

/// The outcome of measuring one (workload, configuration) point.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Workload name.
    pub workload: &'static str,
    /// Mean aggregate user IPC over measurement windows.
    pub ipc: f64,
    /// Half-width of the 95% confidence interval on the IPC.
    pub ipc_ci95: f64,
    /// Summed statistics over all windows.
    pub totals: SystemStats,
    /// Number of measurement windows.
    pub windows: usize,
    /// Cycles the timing engine fast-forwarded without ticking (warm-up
    /// included). An engine diagnostic, deliberately kept out of every
    /// default `BENCH_<id>.json` field so reports stay byte-identical
    /// across engines; surfaced by the deterministic bench counters, and —
    /// since the observability layer landed — by the opt-in
    /// `observability` schema block.
    pub skipped_cycles: u64,
    /// Merged observability summary over all measurement windows; `Some`
    /// only when the configuration enabled observability (`--obs`).
    /// `check_latency`, `stall_episodes` and `incoherence_gaps` are
    /// engine-invariant; `skip_runs`/`skipped_cycles` describe the engine.
    pub obs: Option<ObsReport>,
    /// Retained check-protocol trace events (bounded per pair), drained at
    /// the end of the measurement. Empty unless observability is enabled.
    pub trace: Vec<TraceEvent>,
}

impl Measurement {
    /// Input-incoherence events per million user instructions (Table 3).
    ///
    /// Reads the pair drivers' measured `input_incoherence` counter, not
    /// the raw mismatch count (which also includes escalations raised while
    /// a recovery is already in flight).
    pub fn incoherence_per_million(&self) -> f64 {
        self.totals.per_million(self.totals.input_incoherence)
    }

    /// TLB misses per million user instructions (Table 3).
    pub fn tlb_misses_per_million(&self) -> f64 {
        self.totals.per_million(self.totals.tlb_misses)
    }
}

/// A model measurement normalized against the non-redundant baseline — the
/// y-axis of Figures 5, 6 and 7.
#[derive(Clone, Debug)]
pub struct NormalizedResult {
    /// Workload name.
    pub workload: &'static str,
    /// Mean of per-window IPC ratios (matched-pair comparison).
    pub normalized_ipc: f64,
    /// Half-width of the 95% confidence interval on the ratio.
    pub ci95: f64,
    /// The model measurement.
    pub model: Measurement,
    /// The baseline measurement.
    pub baseline: Measurement,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_normalizations() {
        let m = Measurement {
            workload: "x",
            ipc: 1.0,
            ipc_ci95: 0.0,
            totals: SystemStats {
                user_instructions: 1_000_000,
                cycles: 1_000_000,
                mismatches: 4,
                input_incoherence: 3,
                tlb_misses: 1500,
                ..Default::default()
            },
            windows: 1,
            skipped_cycles: 0,
            obs: None,
            trace: Vec::new(),
        };
        assert!((m.incoherence_per_million() - 3.0).abs() < 1e-9);
        assert!((m.tlb_misses_per_million() - 1500.0).abs() < 1e-9);
    }
}
