//! The CMP memory hierarchy for the Reunion simulator.
//!
//! This crate models the Piranha-derived cache hierarchy from Table 1 of the
//! paper: private write-back L1 caches per core, a banked shared L2 with an
//! inclusive directory coordinating on-chip coherence for **vocal** cores,
//! a crossbar between them, and a fixed-latency DRAM behind the L2.
//!
//! On top of the conventional hierarchy it implements the Reunion-specific
//! shared-cache-controller semantics from §4.2:
//!
//! * **Vocal/mute asymmetry** — mute caches never appear in sharers lists,
//!   can never own a block, and their evictions/writebacks are ignored.
//! * **Phantom requests** ([`PhantomStrength`]) — non-coherent reads used to
//!   fill mute caches, in three strengths: `Null` (arbitrary data on any L1
//!   miss), `Shared` (coherent on L2 hits, arbitrary on L2 misses), and
//!   `Global` (searches the whole hierarchy and memory; the default).
//! * **Synchronizing requests** — flush the block from both private caches,
//!   perform one coherent transaction on behalf of the pair, and return a
//!   single value to both cores; the forward-progress mechanism of the
//!   re-execution protocol.
//!
//! Timing is computed at request time (latency + bank occupancy + MSHR
//! limits); data values are exact. The *globally coherent* value of every
//! word lives in a [`reunion_isa::SparseMemory`] image updated when vocal
//! stores drain — a per-system write layer, optionally over a workload's
//! shared read-only initial image ([`MemorySystem::with_image`]). A mute
//! cache keeps a private (possibly stale) copy of each line it holds, in
//! that line's tag way, which is how input incoherence arises organically.
//!
//! # Examples
//!
//! ```
//! use reunion_isa::Addr;
//! use reunion_kernel::Cycle;
//! use reunion_mem::{MemConfig, MemorySystem, Owner, PhantomStrength};
//!
//! let mut mem = MemorySystem::new(MemConfig::default());
//! let vocal = mem.register_l1(Owner::vocal(0));
//! let now = Cycle::ZERO;
//! let st = mem.drain_store(now, vocal, Addr::new(0x100), 7);
//! let ld = mem.load(st.done_at, vocal, Addr::new(0x100), PhantomStrength::Global);
//! assert_eq!(ld.value, 7);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod arbiter;
mod cache;
mod coherence;
mod config;
mod phantom;
mod stats;
mod system;

pub use arbiter::BankedArbiter;
pub use cache::CacheArray;
pub use coherence::{CoreId, L1Id, Owner};
pub(crate) use coherence::{DirEntry, MesiState};
pub use config::MemConfig;
pub(crate) use phantom::garbage_word;
pub use phantom::PhantomStrength;
pub use stats::MemStats;
pub use system::{Access, MemorySystem, SyncOutcome};
