//! The out-of-order processor core model for the Reunion simulator.
//!
//! Models the simplified pipeline of Figure 3: in-order fetch/decode, an
//! RUU-style out-of-order window (256 entries, Table 1), in-order retirement
//! with an optional **check stage** that compares fingerprints with the
//! partner core before architectural writeback, a two-region store buffer,
//! a gshare branch predictor, and ITLB/DTLB models with both hardware-walked
//! and UltraSPARC-style software-managed miss handling.
//!
//! ## Modeling approach
//!
//! The core is *functionally exact and oracle-scheduled*: an instruction's
//! architectural effect is computed when it dispatches, while its *timing*
//! — operand readiness, execution latency, cache misses, serializing
//! stalls, check-stage releases — is computed forward from known producer
//! completion times. The pipeline binds a load's value from the memory
//! view at dispatch and [`reunion_isa::execute`] computes the rest; debug
//! builds check every retirement against it.
//! Only the correct path is fetched (mispredicted branches charge the
//! refetch penalty without executing wrong-path instructions), a standard
//! simplification that preserves every effect the paper measures:
//! serializing-retirement stalls, ROB occupancy under check latency, MSHR
//! and bank pressure, TSO store-buffer drain, and — crucially — the exact
//! data values that make input incoherence and its detection real.
//!
//! The check stage is exposed as a narrow interface ([`CheckEvent`] out,
//! [`ReleaseGrant`] in) so that the pairing logic (the `reunion-core` crate)
//! can implement Reunion, Strict, or no redundancy at all; the one thing the
//! core is told about its execution model is its [`Role`].
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use reunion_cpu::{Core, CoreConfig};
//! use reunion_isa::{Instruction, Program, RegId};
//! use reunion_kernel::Cycle;
//! use reunion_mem::{MemConfig, MemorySystem, Owner};
//!
//! let prog = Arc::new(Program::new(
//!     "count",
//!     vec![
//!         Instruction::add_imm(RegId::new(1), RegId::new(1), 1),
//!         Instruction::jump(0),
//!     ],
//! )?);
//! let mut mem = MemorySystem::new(MemConfig::small());
//! let l1 = mem.register_l1(Owner::vocal(0));
//! let mut core = Core::new(CoreConfig::default(), prog, l1, 1);
//! for cycle in 0..1000 {
//!     core.tick(Cycle::new(cycle), &mut mem);
//! }
//! assert!(core.retired_user() > 0);
//! # Ok::<(), reunion_isa::ProgramError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod check;
mod config;
mod core_impl;
mod predictor;
mod stats;
mod tlb;

pub use check::{CheckEvent, ReleaseGrant, SyncRequest};
pub use config::{Consistency, CoreConfig, Role, TlbMode};
pub use core_impl::Core;
pub(crate) use predictor::Gshare;
pub use stats::CoreStats;
pub(crate) use tlb::{software_tlb_handler, Tlb};
