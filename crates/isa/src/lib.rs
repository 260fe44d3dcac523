//! A compact RISC instruction set with exact functional semantics.
//!
//! The Reunion paper evaluates an UltraSPARC III system. Reproducing the
//! execution model does not require SPARC encodings — it requires an ISA
//! whose *observable behaviours* drive the phenomena the paper measures:
//!
//! * loads and stores with real data values (so input incoherence produces
//!   genuinely divergent register state and fingerprints),
//! * atomic read-modify-write operations and memory barriers (spin locks,
//!   critical sections, TSO ordering),
//! * serializing instructions — traps, membars, atomics and non-idempotent
//!   MMU accesses — which dominate redundant-execution overhead (§4.4, §5.5),
//! * data-dependent control flow (spinning on a lock word is precisely the
//!   paper's Figure 1 input-incoherence scenario).
//!
//! The crate provides the instruction type ([`Instruction`], [`Opcode`]), the
//! architectural state ([`ArchState`], [`RegFile`]), program images
//! ([`Program`]), the one definition of instruction semantics
//! ([`execute`], which the out-of-order core calls to execute and, in debug
//! builds, to check every retirement), and a golden-model interpreter over
//! it ([`FunctionalCore`]) that the test suite uses as an oracle.
//!
//! # Examples
//!
//! ```
//! use reunion_isa::{Addr, FunctionalCore, Instruction, Program, RegId, SparseMemory};
//!
//! // r1 = 40; r2 = r1 + 2; M[0x100] = r2
//! let prog = Program::new(
//!     "demo",
//!     vec![
//!         Instruction::load_imm(RegId::new(1), 40),
//!         Instruction::add_imm(RegId::new(2), RegId::new(1), 2),
//!         Instruction::store(RegId::new(3), RegId::new(2), 0x100),
//!         Instruction::halt(),
//!     ],
//! )
//! .expect("valid program");
//!
//! let mut mem = SparseMemory::new();
//! let mut core = FunctionalCore::new();
//! while core.step(&prog, &mut mem).is_some() {}
//! assert_eq!(mem.peek(Addr::new(0x100)), 42);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod addr;
pub mod asm;
mod exec;
mod image;
mod inst;
mod program;
mod reg;
mod state;

pub use addr::{Addr, LINE_BYTES, WORDS_PER_LINE};
pub use asm::{AsmError, AsmErrorKind, KernelImage, Span};
pub use exec::{
    alu_compute, atomic_update, effective_address, execute, DataMemory, FunctionalCore,
    SparseMemory, StepEffect,
};
pub use image::{BaseImage, Progression};
pub use inst::{AluOp, AtomicOp, BranchCond, Instruction, Opcode};
pub use program::{Program, ProgramError};
pub use reg::{RegFile, RegId, NUM_REGS};
pub use state::ArchState;
