//! Fingerprinting for lightweight soft-error detection.
//!
//! A *fingerprint* (Smolens et al., ASPLOS 2004, extended by Reunion §4.3)
//! compresses the architectural state updates of an instruction sequence —
//! register writes, branch targets, store addresses and store values — into
//! a small hash. Two redundant cores exchange and compare fingerprints at
//! retirement; a mismatch signals a soft error or input incoherence.
//!
//! This crate implements:
//!
//! * [`Crc`] — a table-driven CRC of configurable width (the paper's 16-bit
//!   CRC "already exceeds industry system error coverage goals by an order
//!   of magnitude"), with [`BitwiseCrc`] as its bit-at-a-time reference.
//! * [`FingerprintUnit`] — accumulates [`UpdateRecord`]s over a configurable
//!   *fingerprint interval* and emits [`Fingerprint`]s for comparison.
//!
//! The paper puts parity trees in front of the CRC so that hardware
//! retiring more than 256 bits of state per cycle can still hash it in one
//! clock; the trees at most double the aliasing probability, to
//! `2^-(N-1)`. That front end is not modelled. A fingerprint here is the
//! CRC of each interval's update records serialized to bytes, so its
//! aliasing bound is the CRC's `2^-N`. Nothing simulated depends on the
//! hash's internals: timing, detection and every report read only whether
//! the two fingerprints of an interval are equal.
//!
//! # Examples
//!
//! ```
//! use reunion_fingerprint::{FingerprintUnit, UpdateRecord};
//!
//! let mut vocal = FingerprintUnit::new(16);
//! let mut mute = FingerprintUnit::new(16);
//! let upd = UpdateRecord::reg(3, 42);
//! vocal.absorb(&upd);
//! mute.absorb(&upd);
//! assert_eq!(vocal.emit(), mute.emit());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod crc;
mod unit;

pub use crc::{BitwiseCrc, Crc};
pub use unit::{Fingerprint, FingerprintUnit, UpdateRecord};
