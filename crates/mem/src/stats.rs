//! Memory-system statistics.

use reunion_kernel::stats::Counter;

/// Event counters maintained by the memory system.
///
/// These feed the evaluation directly: Table 3 reports incoherent phantom
/// fills, and the performance figures depend on hit/miss behaviour.
#[derive(Clone, Debug)]
pub struct MemStats {
    /// L1 load/store lookups that hit.
    pub l1_hits: Counter,
    /// L1 lookups that missed.
    pub l1_misses: Counter,
    /// L2 lookups that went to memory.
    pub l2_misses: Counter,
    /// Phantom requests issued on behalf of mute caches.
    pub phantom_requests: Counter,
    /// Phantom fills that returned arbitrary (non-coherent) data.
    pub phantom_garbage_fills: Counter,
    /// Synchronizing requests performed for re-execution.
    pub sync_requests: Counter,
    /// Invalidations sent to vocal sharers on write upgrades.
    pub invalidations: Counter,
    /// Cycles requests spent waiting for a bounded crossbar port
    /// (always zero under the unmodeled `xbar_ports = 0` default).
    pub xbar_port_waits: Counter,
    /// Cycles requests spent waiting for a busy L2 bank.
    pub bank_conflict_waits: Counter,
    /// Requests that stalled at the crossbar because a bank's bounded
    /// request queue was full (always zero under `bank_queue_depth = 0`).
    pub bank_queue_stalls: Counter,
}

impl MemStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        MemStats {
            l1_hits: Counter::new("l1_hits"),
            l1_misses: Counter::new("l1_misses"),
            l2_misses: Counter::new("l2_misses"),
            phantom_requests: Counter::new("phantom_requests"),
            phantom_garbage_fills: Counter::new("phantom_garbage_fills"),
            sync_requests: Counter::new("sync_requests"),
            invalidations: Counter::new("invalidations"),
            xbar_port_waits: Counter::new("xbar_port_waits"),
            bank_conflict_waits: Counter::new("bank_conflict_waits"),
            bank_queue_stalls: Counter::new("bank_queue_stalls"),
        }
    }

    /// Resets every counter (between measurement windows).
    pub fn reset(&mut self) {
        self.l1_hits.reset();
        self.l1_misses.reset();
        self.l2_misses.reset();
        self.phantom_requests.reset();
        self.phantom_garbage_fills.reset();
        self.sync_requests.reset();
        self.invalidations.reset();
        self.xbar_port_waits.reset();
        self.bank_conflict_waits.reset();
        self.bank_queue_stalls.reset();
    }

    /// L1 hit rate in `[0, 1]` (1.0 when there were no accesses).
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_hits.value() + self.l1_misses.value();
        if total == 0 {
            1.0
        } else {
            self.l1_hits.value() as f64 / total as f64
        }
    }
}

impl Default for MemStats {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_degenerate_and_normal() {
        let mut s = MemStats::new();
        assert_eq!(s.l1_hit_rate(), 1.0);
        s.l1_hits.add(3);
        s.l1_misses.add(1);
        assert!((s.l1_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn reset_zeroes_counters() {
        let mut s = MemStats::new();
        s.phantom_requests.add(5);
        s.sync_requests.incr();
        s.reset();
        assert_eq!(s.phantom_requests.value(), 0);
        assert_eq!(s.sync_requests.value(), 0);
    }
}
