//! The Reunion execution model.
//!
//! This crate is the paper's primary contribution, assembled from the
//! substrate crates: it pairs out-of-order cores ([`reunion_cpu::Core`])
//! into **logical processor pairs** (Definition 1) over the shared-cache
//! controller of [`reunion_mem::MemorySystem`], and implements
//!
//! * **relaxed input replication** — both cores independently access their
//!   cache hierarchies; the mute core via phantom requests,
//! * **output comparison** — fingerprint exchange at the check stage with a
//!   configurable inter-core comparison latency (Definition 7, §4.3),
//! * **input-incoherence detection** — a fingerprint mismatch is
//!   indistinguishable from (and handled like) a soft error (Lemma 1),
//! * **rollback recovery and the two-phase re-execution protocol** —
//!   rollback, single-step to the first load/atomic, one **synchronizing
//!   request** delivering a single coherent value to both cores, and the
//!   rare phase-two architectural-register-file copy (Definitions 8–11,
//!   Figure 4),
//! * the **Strict** oracle baseline (ideal load-value-queue input
//!   replication) and the **non-redundant** baseline the evaluation
//!   normalizes against,
//! * soft-error injection, external-interrupt replication, TSO/SC
//!   consistency, and the matched-pair sampling methodology used by every
//!   experiment.
//!
//! # Examples
//!
//! ```
//! use reunion_core::{CmpSystem, ExecutionMode, SystemConfig};
//! use reunion_workloads::Workload;
//!
//! let workload = Workload::by_name("moldyn").expect("in suite");
//! let cfg = SystemConfig::small_test(ExecutionMode::Reunion);
//! let mut sys = CmpSystem::new(&cfg, &workload);
//! sys.run(5_000);
//! assert!(sys.user_instructions() > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod checkbus;
mod config;
mod metrics;
mod pair;
mod sampling;
mod system;

pub use checkbus::CheckBus;
pub use config::{Engine, ExecutionMode, SystemConfig};
pub use metrics::{ClassSummary, Measurement, NormalizedResult};
pub use pair::{PairDriver, PairStats, RecoveryPhase};
pub use sampling::{
    measure, normalize, normalized_ipc, sampled_run, Baseline, Profile, SampleConfig, SampledRun,
};
pub use system::{CmpSystem, SystemStats};

// The observability vocabulary travels with the execution model so
// downstream crates (sim, bench) need no direct `reunion-obs`
// dependency.
pub use reunion_obs::{
    EpisodeSummary, EventTrace, LatencyHistogram, ObsConfig, ObsReport, TraceEvent, TraceKind,
    DEFAULT_TRACE_CAP, HISTOGRAM_BUCKETS,
};
