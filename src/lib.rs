//! Umbrella crate: re-exports the Reunion reproduction workspace.
//!
//! The implementation lives in the sub-crates; this crate gives examples
//! and integration tests a single dependency and offers the whole public
//! API under one name.
//!
//! ```
//! use reunion::core_model::{ExecutionMode, SystemConfig};
//! let cfg = SystemConfig::table1(ExecutionMode::Reunion);
//! assert_eq!(cfg.physical_cores(), 8);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use reunion_core as core_model;
pub use reunion_cpu as cpu;
pub use reunion_fingerprint as fingerprint;
pub use reunion_isa as isa;
pub use reunion_kernel as kernel;
pub use reunion_mem as mem;
pub use reunion_sim as sim;
pub use reunion_workloads as workloads;
