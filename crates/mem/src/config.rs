//! Memory-hierarchy configuration.

/// Cache hierarchy parameters.
///
/// Defaults reproduce Table 1 of the paper: 64 KB 2-way L1s with a
/// 2-cycle load-to-use latency and 32 MSHRs, a 16 MB 8-way shared L2 with
/// 4 banks and a 35-cycle hit latency, and a 60 ns (240-cycle at 4 GHz)
/// memory access latency.
///
/// The two contention knobs the paper never needed — [`xbar_ports`] and
/// [`bank_queue_depth`] — default to `0`, the *unmodeled* sentinel: the
/// crossbar has as many request ports as it has requesters and every bank
/// queue is unbounded, which reproduces the paper-scale timing exactly.
/// The many-core scaling study (`run scaling`) sets both to finite values.
///
/// [`xbar_ports`]: MemConfig::xbar_ports
/// [`bank_queue_depth`]: MemConfig::bank_queue_depth
///
/// # Examples
///
/// ```
/// use reunion_mem::MemConfig;
///
/// let cfg = MemConfig::default();
/// assert_eq!(cfg.l1_bytes, 64 * 1024);
/// assert_eq!(cfg.l2_hit_latency, 35);
/// let small = MemConfig::small(); // unit-test scale
/// assert!(small.l2_bytes < cfg.l2_bytes);
/// let contended = cfg.with_xbar_ports(2).with_bank_queue_depth(4);
/// assert_eq!(contended.xbar_ports, 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemConfig {
    /// L1 capacity in bytes per core.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// L1 load-to-use latency in cycles.
    pub l1_hit_latency: u64,
    /// Outstanding L1 misses (MSHRs) per core.
    pub l1_mshrs: usize,
    /// Shared L2 capacity in bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// L2 bank count.
    pub l2_banks: usize,
    /// L2 hit latency in cycles (includes tag + data + return).
    pub l2_hit_latency: u64,
    /// Crossbar hop latency from an L1 to an L2 bank, in cycles.
    pub crossbar_latency: u64,
    /// Cycles an L2 bank is occupied per request; lower means more
    /// bandwidth. The paper scales on-chip cache bandwidth with core count,
    /// so redundant configurations halve this value.
    pub bank_occupancy: u64,
    /// Bounded crossbar request ports between the L1s and the L2 banks.
    /// Each injection occupies one port for one cycle; a round-robin
    /// arbiter assigns ports to requests. `0` (the default) models an
    /// unbounded crossbar — no port ever delays a request.
    pub xbar_ports: usize,
    /// Bounded per-bank request queue depth. A request arriving at a full
    /// bank queue stalls at the crossbar until the bank drains an entry.
    /// `0` (the default) models unbounded queues.
    pub bank_queue_depth: usize,
    /// Main-memory access latency in cycles (60 ns at 4 GHz).
    pub dram_latency: u64,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            l1_bytes: 64 * 1024,
            l1_assoc: 2,
            l1_hit_latency: 2,
            l1_mshrs: 32,
            l2_bytes: 16 * 1024 * 1024,
            l2_assoc: 8,
            l2_banks: 4,
            l2_hit_latency: 35,
            crossbar_latency: 3,
            bank_occupancy: 2,
            xbar_ports: 0,
            bank_queue_depth: 0,
            dram_latency: 240,
        }
    }
}

impl MemConfig {
    /// A deliberately tiny hierarchy for unit tests (4 KB L1, 64 KB L2) so
    /// that evictions and conflicts are easy to trigger.
    pub fn small() -> Self {
        MemConfig {
            l1_bytes: 4 * 1024,
            l1_assoc: 2,
            l1_hit_latency: 2,
            l1_mshrs: 4,
            l2_bytes: 64 * 1024,
            l2_assoc: 4,
            l2_banks: 2,
            l2_hit_latency: 10,
            crossbar_latency: 1,
            bank_occupancy: 1,
            xbar_ports: 0,
            bank_queue_depth: 0,
            dram_latency: 50,
        }
    }

    /// Bounds the crossbar at `ports` request ports (`0` = unbounded).
    pub fn with_xbar_ports(mut self, ports: usize) -> Self {
        self.xbar_ports = ports;
        self
    }

    /// Bounds every bank's request queue at `depth` entries
    /// (`0` = unbounded).
    pub fn with_bank_queue_depth(mut self, depth: usize) -> Self {
        self.bank_queue_depth = depth;
        self
    }

    /// Scales L2 bank bandwidth for `cores` cores relative to the 4-core
    /// baseline, per the paper's "cache bandwidth scales in proportion with
    /// the number of cores" assumption.
    ///
    /// The factor is absorbed by dividing `bank_occupancy` for as long as
    /// occupancy stays at or above one cycle; whatever remains multiplies
    /// the bank count. Total bandwidth (`l2_banks / bank_occupancy`
    /// requests per cycle) therefore scales by exactly the factor — it
    /// never saturates the way occupancy-only scaling did at ≥ 16 cores.
    pub fn scaled_for_cores(mut self, cores: usize) -> Self {
        let factor = (cores as u64 / 4).max(1);
        // Largest divisor of `factor` that occupancy can absorb without
        // dropping below one cycle — divisor, not just min, so the
        // decomposition stays exact (e.g. factor 3 with occupancy 2 must
        // triple the banks, not halve occupancy and lose a remainder).
        let cap = factor.min(self.bank_occupancy.max(1));
        let occupancy_divisor = (1..=cap).rev().find(|d| factor % d == 0).unwrap_or(1);
        self.bank_occupancy = (self.bank_occupancy / occupancy_divisor).max(1);
        self.l2_banks *= (factor / occupancy_divisor) as usize;
        self
    }

    /// Number of lines in an L1.
    pub(crate) fn l1_lines(&self) -> usize {
        (self.l1_bytes / reunion_isa::LINE_BYTES) as usize
    }

    /// Number of lines in the L2.
    pub(crate) fn l2_lines(&self) -> usize {
        (self.l2_bytes / reunion_isa::LINE_BYTES) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let cfg = MemConfig::default();
        assert_eq!(cfg.l1_lines(), 1024);
        assert_eq!(cfg.l2_lines(), 262_144);
        assert_eq!(cfg.l1_mshrs, 32);
        assert_eq!(cfg.dram_latency, 240);
        assert_eq!(cfg.l2_banks, 4);
        // Contention is unmodeled at paper scale.
        assert_eq!(cfg.xbar_ports, 0);
        assert_eq!(cfg.bank_queue_depth, 0);
    }

    #[test]
    fn builders_chain() {
        let cfg = MemConfig::default()
            .with_xbar_ports(2)
            .with_bank_queue_depth(4);
        assert_eq!(cfg.xbar_ports, 2);
        assert_eq!(cfg.bank_queue_depth, 4);
    }

    #[test]
    fn scaling_increases_bandwidth() {
        let base = MemConfig::default();
        let scaled = base.clone().scaled_for_cores(8);
        assert!(scaled.bank_occupancy < base.bank_occupancy);
        // Never scales below one cycle of occupancy.
        let floor = MemConfig::small().scaled_for_cores(64);
        assert_eq!(floor.bank_occupancy, 1);
    }

    #[test]
    fn paper_scale_points_are_unchanged_by_the_bank_fix() {
        // The eight committed artifacts only ever scale to 4 or 8 cores;
        // the bank-multiplier fix must leave those points byte-identical.
        let four = MemConfig::default().scaled_for_cores(4);
        assert_eq!(four.bank_occupancy, 2);
        assert_eq!(four.l2_banks, 4);
        let eight = MemConfig::default().scaled_for_cores(8);
        assert_eq!(eight.bank_occupancy, 1);
        assert_eq!(eight.l2_banks, 4);
    }

    #[test]
    fn saturated_occupancy_spills_into_bank_count() {
        // Default occupancy (2) can only absorb a factor of 2; beyond 8
        // cores the leftover multiplies the bank count instead of silently
        // saturating.
        let sixteen = MemConfig::default().scaled_for_cores(16);
        assert_eq!(sixteen.bank_occupancy, 1);
        assert_eq!(sixteen.l2_banks, 8);
        let thirty_two = MemConfig::default().scaled_for_cores(32);
        assert_eq!(thirty_two.bank_occupancy, 1);
        assert_eq!(thirty_two.l2_banks, 16);
    }

    #[test]
    fn scaling_decomposition_is_exact_and_monotonic() {
        // Property sweep: for every core count, delivered bandwidth
        // (banks per occupancy-cycle) scales by exactly the core-count
        // factor — nothing is lost between the occupancy divisor and the
        // bank multiplier — monotonically non-decreasing in the core count.
        for base in [MemConfig::default(), MemConfig::small()] {
            let mut last_bandwidth = 0.0f64;
            for cores in 1..=128 {
                let factor = (cores / 4).max(1);
                let scaled = base.clone().scaled_for_cores(cores);
                let bandwidth = scaled.l2_banks as f64 / scaled.bank_occupancy as f64;
                let expected = factor as f64 * base.l2_banks as f64 / base.bank_occupancy as f64;
                assert!(
                    (bandwidth - expected).abs() < 1e-9,
                    "{cores} cores: bandwidth {bandwidth} != factor-scaled {expected}"
                );
                assert!(
                    bandwidth >= last_bandwidth,
                    "bandwidth must be monotonic in core count (at {cores})"
                );
                last_bandwidth = bandwidth;
            }
        }
    }
}
