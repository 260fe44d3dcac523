//! Core configuration.

use reunion_mem::PhantomStrength;

/// TLB miss handling model (§5.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbMode {
    /// A hardware page walker refills the TLB; the missing access is simply
    /// delayed by the walk latency.
    Hardware {
        /// Page-walk latency in cycles.
        walk_latency: u64,
    },
    /// The UltraSPARC III software-managed "fast TLB miss handler": a trap
    /// into a handler that performs three non-idempotent MMU accesses and a
    /// return trap — five serializing instructions per miss.
    Software,
}

impl Default for TlbMode {
    fn default() -> Self {
        TlbMode::Hardware { walk_latency: 30 }
    }
}

/// Memory consistency model enforced at retirement (§5.5).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Consistency {
    /// Sun Total Store Order: stores drain in order through the store
    /// buffer; only explicit membars serialize.
    #[default]
    Tso,
    /// Sequential consistency: every store carries memory-barrier semantics
    /// and therefore serializes retirement.
    Sc,
}

/// Which half of which kind of pair a core is: the paper's vocal and mute
/// (one role, the halves differ only in the L1 they are attached to), and
/// the leader and trailer of its strict-input-replication baseline (§2.3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Role {
    /// A non-redundant core: retirement is not gated by a check stage.
    #[default]
    Unchecked,
    /// Either half of a Reunion pair.
    Reunion,
    /// The leading core of a strict pair: every load and atomic value it
    /// binds is exported for the trailer's load-value queue.
    StrictLeader,
    /// The trailing core of a strict pair: loads and atomics consume the
    /// leader's values from an ideal load-value queue instead of accessing
    /// the cache hierarchy, and its stores are never drained (the leader
    /// performs them).
    StrictTrailer,
}

impl Role {
    /// Whether retirement is gated by check-stage release grants (any
    /// redundant execution model).
    pub(crate) fn checked(self) -> bool {
        self != Role::Unchecked
    }

    /// Whether bound load values are exported for a partner's queue.
    pub fn produces_lvq(self) -> bool {
        self == Role::StrictLeader
    }

    /// Whether loads are served from the load-value queue.
    pub(crate) fn consumes_lvq(self) -> bool {
        self == Role::StrictTrailer
    }

    /// Whether serializing intervals pay the grant's return trip
    /// ([`CoreConfig::check_latency`]) before retiring. True for Reunion's
    /// tightly coupled pairs; the strict oracle's LVQ-style slack
    /// execution keeps the comparison off the critical path.
    pub fn pays_grant_return(self) -> bool {
        self == Role::Reunion
    }
}

// The core of Table 1: 4-wide dispatch/retirement, 256-entry RUU, 64-entry
// store buffer, 12-stage pipeline (the mispredict/refill penalty), 16-bit
// fingerprints. Every configuration the simulator runs shares them.

/// Dispatch and retirement width, instructions per cycle.
pub(crate) const WIDTH: usize = 4;
/// Register update unit (ROB) capacity.
pub(crate) const ROB_ENTRIES: usize = 256;
/// Store buffer capacity (speculative region).
pub(crate) const SB_ENTRIES: usize = 64;
/// Pipeline refill penalty on a branch mispredict, in cycles.
pub(crate) const MISPREDICT_PENALTY: u64 = 12;
/// Fingerprint CRC width in bits.
pub(crate) const FINGERPRINT_WIDTH: u32 = 16;

/// Configuration of one processor core: what differs between the cores a
/// simulation builds. The pipeline's dimensions are Table 1's and fixed.
#[derive(Clone, Debug, PartialEq)]
pub struct CoreConfig {
    /// The core's place in its execution model.
    pub role: Role,
    /// Phantom request strength used when this core's L1 is mute.
    pub phantom: PhantomStrength,
    /// TLB miss handling model.
    pub tlb: TlbMode,
    /// Synthetic ITLB miss rate per million fetched user instructions
    /// (instruction-footprint effects; workload-dependent).
    pub itlb_miss_per_million: u64,
    /// Memory consistency model.
    pub consistency: Consistency,
    /// Instructions per fingerprint (the fingerprint interval, §4.3).
    pub fingerprint_interval: u32,
    /// One-way check latency in cycles, charged on top of the release
    /// grant when an interval ends in a serializing instruction (the grant
    /// itself must cross back to the core before the drained pipeline may
    /// resume), and twice (a full round trip) on every input-incoherence
    /// re-execution fulfillment. It is also the pair's one-way comparison
    /// latency, read by the pair driver from both halves, which must agree.
    pub check_latency: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            role: Role::Unchecked,
            phantom: PhantomStrength::Global,
            tlb: TlbMode::default(),
            itlb_miss_per_million: 0,
            consistency: Consistency::Tso,
            fingerprint_interval: 1,
            check_latency: 10,
        }
    }
}

impl CoreConfig {
    /// The Table 1 core in `role`.
    pub fn for_role(role: Role) -> Self {
        CoreConfig {
            role,
            ..CoreConfig::default()
        }
    }

    /// Whether a store serializes retirement under the configured
    /// consistency model.
    pub(crate) fn store_serializes(&self) -> bool {
        matches!(self.consistency, Consistency::Sc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let cfg = CoreConfig::default();
        assert_eq!((WIDTH, ROB_ENTRIES, SB_ENTRIES), (4, 256, 64));
        assert_eq!(cfg.role, Role::Unchecked);
        assert_eq!(cfg.fingerprint_interval, 1);
    }

    #[test]
    fn sc_makes_stores_serializing() {
        let mut cfg = CoreConfig::default();
        assert!(!cfg.store_serializes());
        cfg.consistency = Consistency::Sc;
        assert!(cfg.store_serializes());
    }

    #[test]
    fn checked_builder() {
        use Role::*;
        // (role, checked, produces_lvq, consumes_lvq, pays_grant_return)
        for (role, checked, produces, consumes, pays) in [
            (Unchecked, false, false, false, false),
            (Reunion, true, false, false, true),
            (StrictLeader, true, true, false, false),
            (StrictTrailer, true, false, true, false),
        ] {
            let cfg = CoreConfig::for_role(role);
            assert_eq!(cfg.role.checked(), checked, "{role:?}");
            assert_eq!(cfg.role.produces_lvq(), produces, "{role:?}");
            assert_eq!(cfg.role.consumes_lvq(), consumes, "{role:?}");
            assert_eq!(cfg.role.pays_grant_return(), pays, "{role:?}");
        }
    }
}
