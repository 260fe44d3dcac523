//! Sparse configuration overrides — the third axis of an experiment grid.

use reunion_core::SystemConfig;
use reunion_cpu::{Consistency, TlbMode};
use reunion_mem::PhantomStrength;

/// A labeled, sparse override applied on top of a base [`SystemConfig`].
///
/// Every figure and table in the paper sweeps at most a couple of
/// configuration fields (comparison latency, phantom strength, TLB model,
/// consistency, fingerprint interval); a patch names one point of such a
/// sweep, and [`apply`](ConfigPatch::apply) leaves every other field of the
/// base configuration untouched.
///
/// # Examples
///
/// ```
/// use reunion_core::{ExecutionMode, SystemConfig};
/// use reunion_sim::ConfigPatch;
///
/// let patch = ConfigPatch::new("lat=40").latency(40);
/// let mut cfg = SystemConfig::table1(ExecutionMode::Reunion);
/// patch.apply(&mut cfg);
/// assert_eq!(cfg.comparison_latency, 40);
/// assert_eq!(patch.label(), "lat=40");
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConfigPatch {
    label: String,
    comparison_latency: Option<u64>,
    phantom: Option<PhantomStrength>,
    tlb: Option<TlbMode>,
    consistency: Option<Consistency>,
    fingerprint_interval: Option<u32>,
    logical_processors: Option<usize>,
    seed: Option<u64>,
    check_bandwidth: Option<u64>,
}

impl ConfigPatch {
    /// An empty patch with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        ConfigPatch {
            label: label.into(),
            ..ConfigPatch::default()
        }
    }

    /// The conventional "change nothing" patch used by single-point grids.
    pub fn baseline() -> Self {
        ConfigPatch::new("base")
    }

    /// The patch's display label (also its identity within a report).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Overrides the one-way fingerprint comparison latency (Figure 6).
    pub fn latency(mut self, cycles: u64) -> Self {
        self.comparison_latency = Some(cycles);
        self
    }

    /// Overrides the phantom request strength (Figure 7a / Table 3).
    pub fn phantom(mut self, strength: PhantomStrength) -> Self {
        self.phantom = Some(strength);
        self
    }

    /// Overrides the TLB miss handling model (Figure 7b).
    pub fn tlb(mut self, tlb: TlbMode) -> Self {
        self.tlb = Some(tlb);
        self
    }

    /// Overrides the memory consistency model (§5.5).
    pub fn consistency(mut self, model: Consistency) -> Self {
        self.consistency = Some(model);
        self
    }

    /// Overrides the instructions-per-fingerprint interval (§4.3).
    pub fn fingerprint_interval(mut self, interval: u32) -> Self {
        self.fingerprint_interval = Some(interval);
        self
    }

    /// Overrides the number of logical processors.
    pub fn logical_processors(mut self, n: usize) -> Self {
        self.logical_processors = Some(n);
        self
    }

    /// Overrides the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Overrides the shared check-bus occupancy — cycles per fingerprint
    /// message, the reciprocal of the bus bandwidth (`0` = unmodeled
    /// private channels). The second axis of the scaling study.
    pub fn check_bandwidth(mut self, cycles_per_message: u64) -> Self {
        self.check_bandwidth = Some(cycles_per_message);
        self
    }

    /// Applies the overrides to `cfg`, leaving unset fields untouched.
    pub fn apply(&self, cfg: &mut SystemConfig) {
        if let Some(v) = self.comparison_latency {
            cfg.comparison_latency = v;
        }
        if let Some(v) = self.phantom {
            cfg.phantom = v;
        }
        if let Some(v) = self.tlb {
            cfg.tlb = v;
        }
        if let Some(v) = self.consistency {
            cfg.consistency = v;
        }
        if let Some(v) = self.fingerprint_interval {
            cfg.fingerprint_interval = v;
        }
        if let Some(v) = self.logical_processors {
            cfg.logical_processors = v;
        }
        if let Some(v) = self.seed {
            cfg.seed = v;
        }
        if let Some(v) = self.check_bandwidth {
            cfg.check_bus_occupancy = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reunion_core::ExecutionMode;

    #[test]
    fn baseline_changes_nothing() {
        let base = SystemConfig::table1(ExecutionMode::Reunion);
        let mut patched = base.clone();
        ConfigPatch::baseline().apply(&mut patched);
        assert_eq!(base, patched);
    }

    #[test]
    fn multi_field_patch_applies_all_fields() {
        let mut cfg = SystemConfig::table1(ExecutionMode::Reunion);
        ConfigPatch::new("sc+lat40+null")
            .latency(40)
            .consistency(Consistency::Sc)
            .phantom(PhantomStrength::Null)
            .fingerprint_interval(50)
            .apply(&mut cfg);
        assert_eq!(cfg.comparison_latency, 40);
        assert_eq!(cfg.consistency, Consistency::Sc);
        assert_eq!(cfg.phantom, PhantomStrength::Null);
        assert_eq!(cfg.fingerprint_interval, 50);
        // Untouched fields keep Table 1 values.
        assert_eq!(cfg.logical_processors, 4);
    }

    #[test]
    fn scaling_knobs_patch_bus_and_crossbar() {
        let mut cfg = SystemConfig::table1(ExecutionMode::Reunion);
        ConfigPatch::new("p8:bw2")
            .logical_processors(8)
            .check_bandwidth(2)
            .apply(&mut cfg);
        assert_eq!(cfg.logical_processors, 8);
        assert_eq!(cfg.check_bus_occupancy, 2);
        // The unset mem knobs keep their Table 1 values.
        assert_eq!(cfg.mem.bank_queue_depth, 0);
        assert_eq!(cfg.mem.xbar_ports, 0);
    }
}
