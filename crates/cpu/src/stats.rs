//! Per-core statistics.

use reunion_kernel::stats::Counter;
use reunion_obs::EpisodeSummary;

/// Event counters maintained by one core.
#[derive(Clone, Debug)]
pub struct CoreStats {
    /// Retired user (workload) instructions — the IPC numerator.
    pub retired_user: Counter,
    /// All retired instructions including injected handler instructions.
    pub retired_total: Counter,
    /// Serializing instructions retired.
    pub serializing: Counter,
    /// Branch mispredictions.
    pub mispredicts: Counter,
    /// Conditional/unconditional branches retired.
    pub branches: Counter,
    /// DTLB misses.
    pub dtlb_misses: Counter,
    /// Synthetic ITLB misses.
    pub itlb_misses: Counter,
    /// Pipeline rollbacks (recoveries) executed.
    pub rollbacks: Counter,
    /// Loads satisfied by store-buffer forwarding.
    pub forwarded_loads: Counter,
    /// Loads whose value was supplied by a synchronizing request.
    pub sync_loads: Counter,
    /// Fingerprint intervals emitted.
    pub intervals: Counter,
    /// Cycles retirement stalled at a serializing interval waiting for the
    /// check round trip (beyond the release grant itself).
    pub serializing_stall_cycles: Counter,
    /// Cycles charged as check-stage round-trip penalties during
    /// input-incoherence re-executions.
    pub reexec_penalty_cycles: Counter,
    /// Peak occupancy of the check-event buffer between drains — an
    /// allocation-sensitivity probe: the buffer's capacity is recycled, so
    /// a jump here means the hot path's steady-state footprint changed.
    pub peak_check_events: u64,
    /// Peak number of stores pending behind a single word. Stays at four
    /// or fewer on every suite workload; see `store_chain_spills`.
    pub peak_store_chain: u64,
    /// Stores dispatched behind a word that already had four pending.
    pub store_chain_spills: Counter,
    /// Lengths of completed serializing-stall episodes (runs of consecutive
    /// retire-stage stall cycles at one serializing interval). The cycle
    /// total matches `serializing_stall_cycles` for episodes that complete
    /// inside the window; an episode spanning a window boundary is credited
    /// to the window in which it ends.
    pub stall_episodes: EpisodeSummary,
}

impl CoreStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        CoreStats {
            retired_user: Counter::new("retired_user"),
            retired_total: Counter::new("retired_total"),
            serializing: Counter::new("serializing"),
            mispredicts: Counter::new("mispredicts"),
            branches: Counter::new("branches"),
            dtlb_misses: Counter::new("dtlb_misses"),
            itlb_misses: Counter::new("itlb_misses"),
            rollbacks: Counter::new("rollbacks"),
            forwarded_loads: Counter::new("forwarded_loads"),
            sync_loads: Counter::new("sync_loads"),
            intervals: Counter::new("intervals"),
            serializing_stall_cycles: Counter::new("serializing_stall_cycles"),
            reexec_penalty_cycles: Counter::new("reexec_penalty_cycles"),
            peak_check_events: 0,
            peak_store_chain: 0,
            store_chain_spills: Counter::new("store_chain_spills"),
            stall_episodes: EpisodeSummary::new(),
        }
    }

    /// Resets every counter (between measurement windows).
    pub fn reset(&mut self) {
        self.retired_user.reset();
        self.retired_total.reset();
        self.serializing.reset();
        self.mispredicts.reset();
        self.branches.reset();
        self.dtlb_misses.reset();
        self.itlb_misses.reset();
        self.rollbacks.reset();
        self.forwarded_loads.reset();
        self.sync_loads.reset();
        self.intervals.reset();
        self.serializing_stall_cycles.reset();
        self.reexec_penalty_cycles.reset();
        self.peak_check_events = 0;
        self.peak_store_chain = 0;
        self.store_chain_spills.reset();
        self.stall_episodes = EpisodeSummary::new();
    }

    /// Combined TLB misses (Table 3's "TLB Misses" column).
    pub fn tlb_misses(&self) -> u64 {
        self.dtlb_misses.value() + self.itlb_misses.value()
    }
}

impl Default for CoreStats {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tlb_misses_combines_both() {
        let mut s = CoreStats::new();
        s.dtlb_misses.add(3);
        s.itlb_misses.add(2);
        assert_eq!(s.tlb_misses(), 5);
    }

    #[test]
    fn reset_clears() {
        let mut s = CoreStats::new();
        s.retired_user.add(100);
        s.reset();
        assert_eq!(s.retired_user.value(), 0);
    }
}
