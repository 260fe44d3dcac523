//! System-level configuration.

use reunion_cpu::{Consistency, Role, TlbMode};
use reunion_kernel::obs::ObsConfig;
use reunion_mem::{MemConfig, PhantomStrength};

/// Which redundant execution model the CMP runs (§5.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// The non-redundant baseline CMP every figure normalizes against.
    #[default]
    NonRedundant,
    /// Strict input replication: an oracle model of LVQ-style designs — the
    /// trailing core observes exactly the leader's load values with no
    /// input-replication penalty, but pays all checking costs.
    Strict,
    /// The Reunion execution model: relaxed input replication with
    /// fingerprint checking and the re-execution protocol.
    Reunion,
}

impl ExecutionMode {
    /// Whether this mode runs two cores per logical processor.
    pub(crate) fn is_redundant(self) -> bool {
        !matches!(self, ExecutionMode::NonRedundant)
    }

    /// The roles of a logical processor's vocal core and, in a redundant
    /// mode, of its mute core.
    pub(crate) fn roles(self) -> (Role, Option<Role>) {
        match self {
            ExecutionMode::NonRedundant => (Role::Unchecked, None),
            ExecutionMode::Strict => (Role::StrictLeader, Some(Role::StrictTrailer)),
            ExecutionMode::Reunion => (Role::Reunion, Some(Role::Reunion)),
        }
    }

    /// All modes, in the paper's presentation order.
    pub const ALL: [ExecutionMode; 3] = [
        ExecutionMode::NonRedundant,
        ExecutionMode::Strict,
        ExecutionMode::Reunion,
    ];
}

impl std::fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ExecutionMode::NonRedundant => "non-redundant",
            ExecutionMode::Strict => "strict",
            ExecutionMode::Reunion => "reunion",
        };
        f.write_str(name)
    }
}

impl std::str::FromStr for ExecutionMode {
    type Err = String;

    /// Parses the [`Display`](std::fmt::Display) form — the spelling used by
    /// `BENCH_<id>.json` records and shard manifests.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "non-redundant" => Ok(ExecutionMode::NonRedundant),
            "strict" => Ok(ExecutionMode::Strict),
            "reunion" => Ok(ExecutionMode::Reunion),
            other => Err(format!("unknown execution mode {other:?}")),
        }
    }
}

/// Which timing engine advances the simulated CMP.
///
/// Both engines execute the identical per-cycle model (each logical
/// processor's [`tick`]); they differ only in which cycles they tick.
/// Every deterministic output — `BENCH_<id>.json` bytes, measured counters,
/// final architectural state — is guaranteed identical between them; the
/// dual-run `engine-parity` CI job and the randomized property tests in
/// `tests/engines.rs` enforce it.
///
/// [`tick`]: crate::PairDriver::tick
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Tick every logical processor on every cycle — the reference
    /// semantics.
    Dense,
    /// Event-driven time skipping: fast-forward simulated time to the
    /// earliest cycle any logical processor reports it can make forward
    /// progress, clipped at sampling-window boundaries. The default.
    #[default]
    Skip,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Engine::Dense => "dense",
            Engine::Skip => "skip",
        })
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dense" => Ok(Engine::Dense),
            "skip" => Ok(Engine::Skip),
            other => Err(format!("unknown engine {other:?} (expected dense|skip)")),
        }
    }
}

/// Full configuration of a simulated CMP.
///
/// [`SystemConfig::table1`] reproduces the paper's system; tests use
/// [`SystemConfig::small_test`] for speed. Every preset is a plain value —
/// constructors never read the environment — and non-preset configurations
/// are expressed by chaining the `with_*` builder methods:
///
/// ```
/// use reunion_core::{ExecutionMode, SystemConfig};
///
/// let cfg = SystemConfig::table1(ExecutionMode::Reunion)
///     .with_logical_processors(8)
///     .with_check_bandwidth(2)
///     .with_comparison_latency(20);
/// assert_eq!(cfg.physical_cores(), 16);
/// assert_eq!(cfg.check_bus_occupancy, 2);
/// ```
///
/// Run-time concerns (engine selection, observability) are injected by the
/// harness — `reunion_sim::GridBuilder::run_options`, for every cell of a
/// grid — or explicitly via [`with_engine`](Self::with_engine) /
/// [`with_observability`](Self::with_observability).
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Execution model.
    pub mode: ExecutionMode,
    /// Number of logical processors (cores in non-redundant mode, pairs in
    /// redundant modes). The paper simulates four.
    pub logical_processors: usize,
    /// One-way fingerprint comparison latency between paired cores, in
    /// cycles (the x-axis of Figure 6).
    pub comparison_latency: u64,
    /// Bus cycles each fingerprint message occupies the shared check bus
    /// (reciprocal check bandwidth). `0` — the default everywhere the paper
    /// is reproduced — is the *unmodeled* sentinel: every pair owns a
    /// private comparison channel and nothing contends. The scaling study
    /// sets it nonzero so many pairs' check traffic shares one channel.
    pub check_bus_occupancy: u64,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// TLB miss handling model.
    pub tlb: TlbMode,
    /// Memory consistency model.
    pub consistency: Consistency,
    /// Phantom request strength for mute fills (Reunion only).
    pub phantom: PhantomStrength,
    /// Instructions per fingerprint.
    pub fingerprint_interval: u32,
    /// Master seed: programs and per-pair decisions derive from it.
    pub seed: u64,
    /// Timing engine (dense cycle stepping or event-driven time skipping).
    /// Constructors default to [`Engine::Skip`]; outputs are
    /// engine-invariant. Inject a run-time choice via
    /// [`with_engine`](Self::with_engine) or `GridBuilder::run_options`.
    pub engine: Engine,
    /// Opt-in observability (latency histograms + bounded event traces).
    /// Constructors default to off so every deterministic output stays
    /// byte-stable; inject via [`with_observability`](Self::with_observability)
    /// or `GridBuilder::run_options`.
    pub obs: ObsConfig,
}

impl SystemConfig {
    /// The paper's Table 1 baseline with the given execution mode:
    /// 4 logical processors, 10-cycle comparison latency, hardware TLB,
    /// TSO, global phantom requests, per-instruction fingerprints.
    pub fn table1(mode: ExecutionMode) -> Self {
        SystemConfig {
            mode,
            logical_processors: 4,
            comparison_latency: 10,
            check_bus_occupancy: 0,
            mem: MemConfig::default(),
            tlb: TlbMode::default(),
            consistency: Consistency::Tso,
            phantom: PhantomStrength::Global,
            fingerprint_interval: 1,
            seed: 0x5EED_0001,
            engine: Engine::default(),
            obs: ObsConfig::default(),
        }
    }

    /// A reduced configuration (2 logical processors, small caches) for
    /// unit and integration tests.
    pub fn small_test(mode: ExecutionMode) -> Self {
        SystemConfig {
            logical_processors: 2,
            mem: MemConfig::small(),
            seed: 0x5EED_0002,
            ..SystemConfig::table1(mode)
        }
    }

    /// The kernel-suite configuration: Table 1 parameters on 2 logical
    /// processors — the assembly kernels define at most two threads, so a
    /// wider CMP would only add parked processors to every cell.
    pub fn kernel_pair(mode: ExecutionMode) -> Self {
        SystemConfig {
            logical_processors: 2,
            seed: 0x5EED_0003,
            ..SystemConfig::table1(mode)
        }
    }

    /// Sets the logical-processor count (pairs in redundant modes).
    ///
    /// The memory system's directory supports at most 64 private L1s, so
    /// redundant configurations top out at 32 logical processors.
    pub fn with_logical_processors(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one logical processor");
        self.logical_processors = n;
        self
    }

    /// Sets the one-way fingerprint comparison latency in cycles.
    pub fn with_comparison_latency(mut self, cycles: u64) -> Self {
        self.comparison_latency = cycles;
        self
    }

    /// Models a shared check bus: each fingerprint message occupies the
    /// channel for `cycles_per_message` bus cycles (reciprocal bandwidth —
    /// `1` = one message per cycle, `0` = unmodeled private channels, the
    /// paper's configuration).
    pub fn with_check_bandwidth(mut self, cycles_per_message: u64) -> Self {
        self.check_bus_occupancy = cycles_per_message;
        self
    }

    /// Sets the fingerprint summarization interval in instructions.
    pub fn with_fingerprint_interval(mut self, instructions: u32) -> Self {
        assert!(instructions >= 1, "fingerprints summarize >= 1 instruction");
        self.fingerprint_interval = instructions;
        self
    }

    /// Sets the master seed (programs and per-pair decisions derive from it).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the timing engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the observability configuration.
    pub fn with_observability(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Replaces the memory hierarchy parameters.
    pub fn with_mem(mut self, mem: MemConfig) -> Self {
        self.mem = mem;
        self
    }

    /// The non-redundant baseline this configuration is normalized against:
    /// `mode = NonRedundant`, and the fields only a redundant pair reads —
    /// comparison latency, check bandwidth, phantom strength, fingerprint
    /// interval — reset to [`table1`](Self::table1)'s values. Everything a
    /// non-redundant machine does read (processor count, memory, TLB,
    /// consistency, seed, engine, observability) is kept.
    ///
    /// Two models with the same projection share one baseline measurement:
    /// it is both the key a run memoises baselines under and the
    /// configuration the baseline runs with.
    pub fn baseline(&self) -> SystemConfig {
        let table1 = SystemConfig::table1(ExecutionMode::NonRedundant);
        SystemConfig {
            mode: ExecutionMode::NonRedundant,
            comparison_latency: table1.comparison_latency,
            check_bus_occupancy: table1.check_bus_occupancy,
            phantom: table1.phantom,
            fingerprint_interval: table1.fingerprint_interval,
            ..self.clone()
        }
    }

    /// Total physical cores this configuration instantiates.
    pub fn physical_cores(&self) -> usize {
        if self.mode.is_redundant() {
            self.logical_processors * 2
        } else {
            self.logical_processors
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let cfg = SystemConfig::table1(ExecutionMode::Reunion);
        assert_eq!(cfg.logical_processors, 4);
        assert_eq!(cfg.comparison_latency, 10);
        assert_eq!(cfg.physical_cores(), 8);
        let base = SystemConfig::table1(ExecutionMode::NonRedundant);
        assert_eq!(base.physical_cores(), 4);
    }

    #[test]
    fn kernel_pair_narrows_table1() {
        let cfg = SystemConfig::kernel_pair(ExecutionMode::Reunion);
        assert_eq!(cfg.logical_processors, 2);
        assert_eq!(cfg.mem, MemConfig::default());
        assert_ne!(cfg.seed, SystemConfig::table1(ExecutionMode::Reunion).seed);
    }

    #[test]
    fn constructors_are_env_free_and_builders_chain() {
        // Presets are plain values: no REUNION_* variable can change them.
        let cfg = SystemConfig::table1(ExecutionMode::Reunion);
        assert_eq!(cfg.engine, Engine::default());
        assert_eq!(cfg.obs, ObsConfig::default());
        assert_eq!(
            cfg.check_bus_occupancy, 0,
            "check bus unmodeled at paper scale"
        );

        let grown = cfg
            .with_logical_processors(16)
            .with_comparison_latency(40)
            .with_check_bandwidth(2)
            .with_fingerprint_interval(8)
            .with_seed(0xABCD)
            .with_engine(Engine::Dense)
            .with_mem(MemConfig::small());
        assert_eq!(grown.logical_processors, 16);
        assert_eq!(grown.physical_cores(), 32);
        assert_eq!(grown.comparison_latency, 40);
        assert_eq!(grown.check_bus_occupancy, 2);
        assert_eq!(grown.fingerprint_interval, 8);
        assert_eq!(grown.seed, 0xABCD);
        assert_eq!(grown.engine, Engine::Dense);
        assert_eq!(grown.mem, MemConfig::small());
    }

    #[test]
    fn baseline_drops_only_what_a_pair_reads() {
        let model = SystemConfig::small_test(ExecutionMode::Reunion)
            .with_comparison_latency(40)
            .with_check_bandwidth(2)
            .with_fingerprint_interval(8)
            .with_logical_processors(3)
            .with_engine(Engine::Dense);
        let mut other = model.clone().with_comparison_latency(0);
        other.mode = ExecutionMode::Strict;
        other.phantom = PhantomStrength::Null;
        assert_eq!(model.baseline(), other.baseline());

        let base = model.baseline();
        assert_eq!(base.mode, ExecutionMode::NonRedundant);
        assert_eq!(base.logical_processors, 3);
        assert_eq!(base.mem, MemConfig::small());
        assert_eq!(base.engine, Engine::Dense);
        assert_eq!(base.baseline(), base, "the projection is idempotent");
        assert_ne!(model.clone().with_seed(7).baseline(), base);
    }

    #[test]
    fn mode_properties() {
        assert!(!ExecutionMode::NonRedundant.is_redundant());
        assert!(ExecutionMode::Strict.is_redundant());
        assert!(ExecutionMode::Reunion.is_redundant());
        assert_eq!(ExecutionMode::Reunion.to_string(), "reunion");
    }
}
