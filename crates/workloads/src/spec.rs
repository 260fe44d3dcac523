//! Workload parameterization.

use std::fmt;

/// The four workload classes of the evaluation (Table 2 / Figure 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WorkloadClass {
    /// SPECweb99-style web serving (Apache, Zeus): trap-heavy request
    /// loops, moderate sharing.
    Web,
    /// TPC-C-style OLTP (DB2, Oracle): lock-intensive transactions,
    /// frequent membars, the largest TLB pressure.
    Oltp,
    /// TPC-H-style decision support (DB2 Q1/Q2/Q17): scan/join loops over
    /// large shared tables, few serializing events.
    Dss,
    /// Parallel scientific kernels (em3d, moldyn, ocean, sparse): high MLP,
    /// ROB-saturating, minimal serialization.
    Scientific,
}

impl WorkloadClass {
    /// All classes, in the paper's presentation order.
    pub const ALL: [WorkloadClass; 4] = [
        WorkloadClass::Web,
        WorkloadClass::Oltp,
        WorkloadClass::Dss,
        WorkloadClass::Scientific,
    ];

    /// Whether the paper groups this class as "commercial".
    pub fn is_commercial(self) -> bool {
        !matches!(self, WorkloadClass::Scientific)
    }
}

impl fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            WorkloadClass::Web => "Web",
            WorkloadClass::Oltp => "OLTP",
            WorkloadClass::Dss => "DSS",
            WorkloadClass::Scientific => "Scientific",
        };
        f.write_str(name)
    }
}

impl std::str::FromStr for WorkloadClass {
    type Err = String;

    /// Parses the [`Display`](fmt::Display) form — the spelling used by
    /// `BENCH_<id>.json` records and shard manifests.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "Web" => Ok(WorkloadClass::Web),
            "OLTP" => Ok(WorkloadClass::Oltp),
            "DSS" => Ok(WorkloadClass::Dss),
            "Scientific" => Ok(WorkloadClass::Scientific),
            other => Err(format!("unknown workload class {other:?}")),
        }
    }
}

/// First-class sharing/contention model of one workload.
///
/// The source of cross-thread race behavior: a small *hot* region of
/// truly shared cache lines with a bounded writer set, migratory
/// read-modify-write traffic, producer-consumer flag hand-offs, and bursts
/// of contended critical sections on a small subset of the globally shared
/// lock bank. Together these control how often a mute core's stale private
/// snapshot disagrees with the vocal's coherent read — the
/// input-incoherence rate of Table 3.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SharingModel {
    /// Number of hot shared cache lines all threads read (power of two).
    pub hot_lines: u64,
    /// Writer-count bound: only threads with index below this value ever
    /// store to the hot region; the rest are pure readers.
    pub writers: u32,
    /// Relative weight of hot-region access segments.
    pub hot_weight: f64,
    /// Fraction of hot-region segments that include a (writer-gated) store.
    pub hot_write_fraction: f64,
    /// Relative weight of migratory read-modify-write segments (line
    /// ownership migrates between threads as their cursors coincide).
    pub migratory_weight: f64,
    /// Relative weight of producer-consumer flag segments (each thread
    /// publishes its own flag line and polls its neighbor's).
    pub producer_consumer_weight: f64,
    /// Fraction of critical sections that contend on the globally shared
    /// lock bank instead of the thread-affine bank.
    pub lock_contention: f64,
    /// Size of the contended subset of the global lock bank (power of two);
    /// smaller values mean real runtime collisions between threads.
    pub contended_locks: u64,
    /// Consecutive contended critical sections emitted per contention
    /// burst.
    pub burst_len: u32,
    /// Dynamic rarity of hot/migratory/producer writes (power of two): a
    /// generated store fires roughly once per this many loop iterations,
    /// so racy writes are rare *at runtime* even though the store is a
    /// static part of the loop body.
    pub write_period: u64,
    /// Dynamic rarity of contended lock bursts (power of two, in loop
    /// iterations), gated the same way.
    pub contention_period: u64,
}

impl SharingModel {
    /// Derives a modest sharing model from two scalars: the fraction of
    /// critical sections that contend on the global lock bank, and the
    /// shared-read weight, which scales a small hot-read weight.
    pub fn derived(lock_contention: f64, shared_read_weight: f64) -> Self {
        SharingModel {
            hot_lines: 8,
            writers: 1,
            hot_weight: shared_read_weight * 0.25,
            hot_write_fraction: 0.02,
            migratory_weight: 0.0,
            producer_consumer_weight: 0.0,
            lock_contention,
            contended_locks: 8,
            burst_len: 1,
            write_period: 64,
            contention_period: 64,
        }
    }

    /// Validates the model's structural invariants.
    ///
    /// # Panics
    ///
    /// Panics (with `name` in the message) if a bound is violated.
    pub fn assert_valid(&self, name: &str) {
        assert!(
            self.hot_lines.is_power_of_two(),
            "{name}: hot_lines must be a power of two"
        );
        assert!(self.writers >= 1, "{name}: need at least one hot writer");
        assert!(
            self.contended_locks.is_power_of_two(),
            "{name}: contended_locks must be a power of two"
        );
        assert!(self.burst_len >= 1, "{name}: burst_len must be at least 1");
        assert!(
            self.write_period.is_power_of_two(),
            "{name}: write_period must be a power of two"
        );
        assert!(
            self.contention_period.is_power_of_two(),
            "{name}: contention_period must be a power of two"
        );
        for (label, w) in [
            ("hot_weight", self.hot_weight),
            ("hot_write_fraction", self.hot_write_fraction),
            ("migratory_weight", self.migratory_weight),
            ("producer_consumer_weight", self.producer_consumer_weight),
            ("lock_contention", self.lock_contention),
        ] {
            assert!(
                w.is_finite() && w >= 0.0,
                "{name}: {label} must be finite and non-negative"
            );
        }
    }
}

/// Generator parameters for one workload.
///
/// Footprint sizes must be powers of two (address wrapping uses masks).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Display name (Table 2 row).
    pub name: &'static str,
    /// Workload class.
    pub class: WorkloadClass,
    /// Per-thread private data footprint in bytes (power of two).
    pub private_bytes: u64,
    /// Shared data footprint in bytes (power of two).
    pub shared_bytes: u64,
    /// Number of spin locks protecting shared updates.
    pub locks: u64,
    /// Instructions per critical section body.
    pub critical_section_len: usize,
    /// Relative weight of lock-protected shared update segments.
    pub lock_weight: f64,
    /// Relative weight of unprotected shared read segments (scans).
    pub shared_read_weight: f64,
    /// Relative weight of private-data access segments.
    pub private_weight: f64,
    /// Relative weight of pure compute segments.
    pub compute_weight: f64,
    /// Relative weight of trap segments (system activity).
    pub trap_weight: f64,
    /// Relative weight of explicit memory-barrier segments.
    pub membar_weight: f64,
    /// Relative weight of pointer-chase steps (dependent loads).
    pub chase_weight: f64,
    /// Fraction of private/shared data accesses that are stores.
    pub store_fraction: f64,
    /// Private-region long-jump stride in bytes (multiple of 8), used for
    /// the occasional locality-breaking jump.
    pub private_stride: u64,
    /// Private-region sequential step in bytes (multiple of 8): the common
    /// page-local advance between jumps.
    pub private_step: u64,
    /// Fraction of private accesses that take the long jump instead of the
    /// sequential step (controls DTLB and cache locality).
    pub jump_fraction: f64,
    /// Shared-region access stride in bytes (multiple of 8).
    pub shared_stride: u64,
    /// The first-class sharing/contention model ([`SharingModel::derived`]
    /// builds a modest one from two scalars).
    pub sharing: SharingModel,
    /// Synthetic ITLB miss rate per million fetched instructions
    /// (instruction-footprint surrogate; Table 3).
    pub itlb_miss_per_million: u64,
    /// Number of static loop-body segments to generate.
    pub segments: usize,
    /// Generator seed (fixed per workload for reproducibility).
    pub seed: u64,
}

impl WorkloadSpec {
    /// Validates the power-of-two footprint requirements.
    ///
    /// # Panics
    ///
    /// Panics if a footprint is not a power of two or is smaller than a
    /// page.
    pub fn assert_valid(&self) {
        assert!(
            self.private_bytes.is_power_of_two() && self.private_bytes >= 8192,
            "{}: private footprint must be a power of two >= 8 KB",
            self.name
        );
        assert!(
            self.shared_bytes.is_power_of_two() && self.shared_bytes >= 8192,
            "{}: shared footprint must be a power of two >= 8 KB",
            self.name
        );
        assert!(self.locks > 0, "{}: need at least one lock", self.name);
        assert!(self.segments >= 8, "{}: too few segments", self.name);
        self.sharing.assert_valid(self.name);
        assert!(
            self.sharing.contended_locks <= self.locks * 16,
            "{}: contended subset exceeds the global lock bank",
            self.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "test",
            class: WorkloadClass::Oltp,
            private_bytes: 1 << 20,
            shared_bytes: 1 << 20,
            locks: 16,
            critical_section_len: 8,
            lock_weight: 1.0,
            shared_read_weight: 1.0,
            private_weight: 4.0,
            compute_weight: 4.0,
            trap_weight: 0.1,
            membar_weight: 0.1,
            chase_weight: 0.0,
            store_fraction: 0.3,
            private_stride: 8 * 40503,
            private_step: 24,
            jump_fraction: 0.03,
            shared_stride: 8 * 10501,
            sharing: SharingModel::derived(0.05, 1.0),
            itlb_miss_per_million: 1000,
            segments: 32,
            seed: 42,
        }
    }

    #[test]
    fn classes_partition_commercial() {
        assert!(WorkloadClass::Web.is_commercial());
        assert!(WorkloadClass::Oltp.is_commercial());
        assert!(WorkloadClass::Dss.is_commercial());
        assert!(!WorkloadClass::Scientific.is_commercial());
    }

    #[test]
    fn valid_spec_passes() {
        spec().assert_valid();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_footprint() {
        let mut s = spec();
        s.private_bytes = 3 << 20;
        s.assert_valid();
    }

    #[test]
    fn class_display() {
        assert_eq!(WorkloadClass::Scientific.to_string(), "Scientific");
    }

    #[test]
    fn derived_sharing_tracks_legacy_scalars() {
        let m = SharingModel::derived(0.25, 2.0);
        assert!((m.lock_contention - 0.25).abs() < 1e-12);
        assert!((m.hot_weight - 0.5).abs() < 1e-12);
        m.assert_valid("derived");
    }

    #[test]
    #[should_panic(expected = "hot_lines")]
    fn rejects_non_power_of_two_hot_lines() {
        let mut s = spec();
        s.sharing.hot_lines = 3;
        s.assert_valid();
    }

    #[test]
    #[should_panic(expected = "hot writer")]
    fn rejects_zero_writers() {
        let mut s = spec();
        s.sharing.writers = 0;
        s.assert_valid();
    }

    #[test]
    #[should_panic(expected = "contended subset")]
    fn rejects_oversized_contended_bank() {
        let mut s = spec();
        s.sharing.contended_locks = s.locks * 32;
        s.assert_valid();
    }
}
