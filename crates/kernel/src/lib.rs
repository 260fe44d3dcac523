//! Simulation kernel for the Reunion CMP simulator.
//!
//! This crate provides the deterministic, dependency-free infrastructure that
//! every other crate in the workspace builds on:
//!
//! * [`Cycle`] — a strongly-typed simulation timestamp.
//! * [`SimRng`] — a seeded, reproducible pseudo-random number generator
//!   (xoshiro256\*\*). Determinism matters here: the Reunion evaluation relies
//!   on matched-pair sampling, and reproducing an input-incoherence event
//!   requires replaying the exact interleaving that produced it.
//! * [`stats`] — counters and ratio statistics used to report the paper's
//!   metrics (IPC, incoherence events per million instructions, …).
//! * [`DelayQueue`] — a cycle-indexed delivery queue used to model fixed
//!   latencies (fingerprint channels, memory replies, crossbar hops), with a
//!   [`peek_next_ready`](DelayQueue::peek_next_ready) accessor for
//!   event-driven engines. Internally a three-tier calendar queue: `O(1)`
//!   push/pop for near-future deliveries, heap tiers for the overflow.
//! * [`EventHorizon`] — the fold a time-skipping engine uses to combine
//!   per-component "earliest activity" reports into the next cycle worth
//!   simulating.
//! * [`HorizonTree`] — the indexed form of the same horizon: a tournament
//!   tree over per-component bounds with `O(log P)` update, `O(1)` minimum,
//!   and pruned ready-set extraction, for engines that tick many components
//!   selectively.
//! * [`hash`] — a fixed-seed fast hasher ([`FastHashMap`]) for the
//!   simulator's hot point-lookup maps, where SipHash's DoS resistance is
//!   pure overhead.
//!
//! # Examples
//!
//! ```
//! use reunion_kernel::{Cycle, SimRng, stats::Counter};
//!
//! let mut rng = SimRng::seed_from(0xC0FFEE);
//! let mut retired = Counter::new("retired_instructions");
//! let now = Cycle::ZERO;
//! if rng.chance(0.5) {
//!     retired.add(4);
//! }
//! assert!(now + 10 > now);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cycle;
mod delay;
pub mod hash;
mod horizon;
mod rng;
pub mod stats;
mod tree;

pub use cycle::Cycle;
pub use delay::DelayQueue;
pub use hash::{FastHashMap, FastHashSet, FastHasher};
pub use horizon::EventHorizon;
pub use rng::SimRng;
pub use tree::HorizonTree;
