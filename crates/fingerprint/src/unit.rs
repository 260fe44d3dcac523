//! The architectural fingerprint unit.

use std::fmt;

use crate::Crc;

/// A compressed summary of architectural updates over one fingerprint
/// interval, as swapped between the vocal and mute cores.
///
/// Equality (`==`, over all three fields) is the check-stage comparison:
/// the `interval_id` keeps fingerprints of different intervals apart even
/// where the hashes coincide, and a differing `count` is a mismatch too.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// Monotonic interval number within the run.
    pub interval_id: u64,
    /// Number of instructions summarized.
    pub count: u32,
    /// The compressed hash register.
    pub hash: u32,
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fp#{}[{} insts]={:#06x}",
            self.interval_id, self.count, self.hash
        )
    }
}

/// One instruction's contribution to the fingerprint: "all register updates,
/// branch targets, store addresses, and store values" (§4.3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateRecord {
    /// Destination register index and value, if any.
    pub reg: Option<(u8, u64)>,
    /// Store (or synchronizing/uncacheable) address, if any.
    pub addr: Option<u64>,
    /// Store value, if any.
    pub data: Option<u64>,
    /// Resolved branch target, if a control transfer.
    pub target: Option<u64>,
}

impl UpdateRecord {
    /// A register update.
    pub fn reg(index: u8, value: u64) -> Self {
        UpdateRecord {
            reg: Some((index, value)),
            ..Default::default()
        }
    }

    /// A store of `data` to `addr`.
    pub fn store(addr: u64, data: u64) -> Self {
        UpdateRecord {
            addr: Some(addr),
            data: Some(data),
            ..Default::default()
        }
    }

    /// A branch resolving to `target`.
    pub fn branch(target: u64) -> Self {
        UpdateRecord {
            target: Some(target),
            ..Default::default()
        }
    }

    /// A load: register update plus the accessed address.
    ///
    /// Including the address extends coverage to the address-generation
    /// path; relaxed input replication checks it implicitly because both
    /// cores compute it independently.
    pub fn load(index: u8, value: u64, addr: u64) -> Self {
        UpdateRecord {
            reg: Some((index, value)),
            addr: Some(addr),
            ..Default::default()
        }
    }

    /// Whether the record carries no architectural payload (e.g. a nop).
    pub fn is_empty(&self) -> bool {
        self.reg.is_none() && self.addr.is_none() && self.data.is_none() && self.target.is_none()
    }
}

/// Accumulates update records and emits fingerprints at interval boundaries.
///
/// The *fingerprint interval* — how many instructions each fingerprint
/// summarizes — trades comparison bandwidth against detection latency; the
/// paper finds intervals of 1 and 50 perform indistinguishably (§4.3). The
/// interval is enforced by the caller (the check stage), which decides when
/// to [`emit`](FingerprintUnit::emit); serializing instructions force an
/// early emit.
///
/// # Examples
///
/// ```
/// use reunion_fingerprint::{FingerprintUnit, UpdateRecord};
///
/// let mut unit = FingerprintUnit::new(16);
/// unit.absorb(&UpdateRecord::store(0x100, 7));
/// let fp = unit.emit();
/// assert_eq!(fp.count, 1);
/// assert_eq!(fp.interval_id, 0);
/// assert_eq!(unit.emit().interval_id, 1); // empty intervals still advance
/// ```
#[derive(Clone, Debug)]
pub struct FingerprintUnit {
    crc: Crc,
    next_interval: u64,
    count: u32,
}

impl FingerprintUnit {
    /// Creates a unit with an `width`-bit CRC register.
    pub fn new(width: u32) -> Self {
        FingerprintUnit {
            crc: Crc::new(width, 0x1021, !0u32),
            next_interval: 0,
            count: 0,
        }
    }

    /// Absorbs one instruction's update record.
    pub fn absorb(&mut self, record: &UpdateRecord) {
        // Fixed lane tags keep distinct update kinds from aliasing (a store
        // of value V and a register write of V must differ). The record is
        // serialized into one stack buffer and consumed in a single call:
        // the CRC is chunking-invariant, so the hash is identical to
        // feeding each field separately, but the slice-by-8 engine sees
        // whole 8-byte folds instead of a run of 1–2 byte tails.
        let mut buf = [0u8; 38];
        let mut len = 0;
        let mut put = |bytes: &[u8]| {
            buf[len..len + bytes.len()].copy_from_slice(bytes);
            len += bytes.len();
        };
        if let Some((idx, value)) = record.reg {
            put(&[0xA1, idx]);
            put(&value.to_be_bytes());
        }
        if let Some(addr) = record.addr {
            put(&[0xB2]);
            put(&addr.to_be_bytes());
        }
        if let Some(data) = record.data {
            put(&[0xC3]);
            put(&data.to_be_bytes());
        }
        if let Some(target) = record.target {
            put(&[0xD4]);
            put(&target.to_be_bytes());
        }
        self.crc.consume(&buf[..len]);
        self.count += 1;
    }

    /// Number of instructions absorbed in the current interval.
    pub fn pending(&self) -> u32 {
        self.count
    }

    /// The id the next emitted fingerprint will carry.
    pub fn next_interval_id(&self) -> u64 {
        self.next_interval
    }

    /// Ends the interval: returns its fingerprint and starts the next.
    pub fn emit(&mut self) -> Fingerprint {
        let fp = Fingerprint {
            interval_id: self.next_interval,
            count: self.count,
            hash: self.crc.finish(),
        };
        self.next_interval += 1;
        self.count = 0;
        fp
    }

    /// Discards the current interval *without* advancing the interval id —
    /// used on pipeline flush, when uncompared instructions are squashed.
    fn squash(&mut self) {
        self.crc.reset();
        self.count = 0;
    }

    /// Restarts interval numbering (between measurement windows).
    pub fn reset(&mut self) {
        self.squash();
        self.next_interval = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_streams_produce_matching_fingerprints() {
        let mut a = FingerprintUnit::new(16);
        let mut b = FingerprintUnit::new(16);
        for i in 0..50u64 {
            let rec = UpdateRecord::reg((i % 32) as u8, i * 13);
            a.absorb(&rec);
            b.absorb(&rec);
        }
        assert_eq!(a.emit(), b.emit());
    }

    #[test]
    fn differing_value_is_detected() {
        let mut a = FingerprintUnit::new(16);
        let mut b = FingerprintUnit::new(16);
        a.absorb(&UpdateRecord::reg(1, 100));
        b.absorb(&UpdateRecord::reg(1, 101));
        assert_ne!(a.emit(), b.emit());
    }

    #[test]
    fn update_kinds_do_not_alias() {
        let mut a = FingerprintUnit::new(16);
        let mut b = FingerprintUnit::new(16);
        a.absorb(&UpdateRecord::store(5, 0));
        b.absorb(&UpdateRecord::branch(5));
        assert_ne!(a.emit().hash, b.emit().hash);
    }

    #[test]
    fn interval_ids_never_match_across_intervals() {
        let mut a = FingerprintUnit::new(16);
        let mut b = FingerprintUnit::new(16);
        a.absorb(&UpdateRecord::reg(1, 1));
        let fa = a.emit();
        b.emit(); // b skips an interval
        b.absorb(&UpdateRecord::reg(1, 1));
        let fb = b.emit();
        assert_eq!(fa.hash, fb.hash);
        assert_ne!(fa, fb, "different intervals must not match");
    }

    #[test]
    fn squash_discards_without_advancing() {
        let mut u = FingerprintUnit::new(16);
        u.absorb(&UpdateRecord::reg(2, 9));
        u.squash();
        let fp = u.emit();
        assert_eq!(fp.interval_id, 0);
        assert_eq!(fp.count, 0);
    }

    #[test]
    fn load_record_covers_address() {
        let mut a = FingerprintUnit::new(16);
        let mut b = FingerprintUnit::new(16);
        a.absorb(&UpdateRecord::load(1, 7, 0x100));
        b.absorb(&UpdateRecord::load(1, 7, 0x108));
        assert_ne!(
            a.emit().hash,
            b.emit().hash,
            "address divergence must be visible"
        );
    }

    #[test]
    fn empty_record_detection() {
        assert!(UpdateRecord::default().is_empty());
        assert!(!UpdateRecord::reg(0, 0).is_empty());
    }

    #[test]
    fn display_format() {
        let fp = Fingerprint {
            interval_id: 3,
            count: 2,
            hash: 0xAB,
        };
        assert!(fp.to_string().contains("fp#3"));
    }

    #[test]
    fn reset_restarts_interval_numbering() {
        let mut u = FingerprintUnit::new(16);
        u.emit();
        u.emit();
        u.reset();
        assert_eq!(u.emit().interval_id, 0);
    }
}
