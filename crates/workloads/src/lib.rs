//! Synthetic workload suite mirroring the Reunion evaluation (Table 2).
//!
//! The paper measures TPC-C on DB2 and Oracle, TPC-H queries on DB2,
//! SPECweb99 on Apache and Zeus, and four parallel scientific kernels. We
//! cannot ship those stacks; what the Reunion results actually depend on is
//! a handful of *observable workload behaviours*:
//!
//! * the rate of **serializing instructions** — traps, memory barriers,
//!   atomics, non-idempotent MMU accesses (dominates commercial overhead),
//! * **TLB miss rates** (large instruction/data footprints; Table 3),
//! * **sharing and lock behaviour** — data races between pairs are the
//!   source of input incoherence (Figure 1 is literally a spin lock),
//! * **cache footprints** relative to the L1 and the 16 MB shared L2
//!   (em3d's working set exceeds the L2, which is why `shared`-strength
//!   phantom requests collapse on it),
//! * **memory-level parallelism** (scientific codes saturate the ROB).
//!
//! Each of the eleven named workloads is a seeded, deterministic program
//! generator parameterized along exactly those axes. The generated code is
//! real code — spin locks built from atomic swaps, pointer chases through
//! initialized memory, strided scans — so every effect above emerges from
//! execution rather than being injected statistically (the one exception is
//! the ITLB miss rate, which synthetic code images are too small to produce
//! organically; it is a per-workload rate consumed by the core's ITLB
//! model).
//!
//! # Examples
//!
//! ```
//! use reunion_workloads::{suite, Workload};
//!
//! let all = suite();
//! assert_eq!(all.len(), 11);
//! let apache = Workload::by_name("apache").expect("known workload");
//! let prog = apache.program(0);
//! assert!(prog.len() > 100);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod builder;
mod gen;
mod kernels;
mod spec;
mod suite;

pub use builder::ProgramBuilder;
pub use gen::{
    generate_program, initial_memory, FLAG_BASE, FLAG_SLOTS, HOT_BASE, LOCK_BASE, PRIVATE_BASE,
    PRIVATE_SPACING, SHARED_BASE,
};
pub use kernels::{kernel_suite, KERNEL_SOURCES};
pub use spec::{SharingModel, WorkloadClass, WorkloadSpec};
pub use suite::{suite, CachePopulation, Workload};
