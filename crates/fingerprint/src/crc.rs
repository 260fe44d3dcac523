//! Table-driven CRC of configurable width.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Precomputed lookup tables for one `(width, polynomial)` pair.
///
/// `byte` is the classic byte-at-a-time table in width-aligned form;
/// `sliced` holds the eight slice-by-8 tables in *left-aligned* form (the
/// register justified against bit 31), which is what lets eight input bytes
/// fold in one step without per-byte shifts by a runtime width. For widths
/// below 8 the aligned identity does not apply and `sliced` stays unused.
#[derive(PartialEq, Eq)]
struct CrcTables {
    byte: [u32; 256],
    sliced: [[u32; 256]; 8],
}

/// Terse on purpose: the 2 304 words are a pure function of the owning
/// [`Crc`]'s `(width, polynomial)`, and every core's `Debug` output
/// passes through here.
impl std::fmt::Debug for CrcTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CrcTables")
    }
}

impl CrcTables {
    fn build(width: u32, polynomial: u32) -> Self {
        let mask: u32 = if width == 32 {
            u32::MAX
        } else {
            (1 << width) - 1
        };
        let top: u32 = 1 << (width - 1);
        let mut byte = [0u32; 256];
        for (b, slot) in byte.iter_mut().enumerate() {
            // MSB-first update over one input byte.
            let mut reg = (b as u32) << (width.saturating_sub(8));
            for _ in 0..8 {
                reg = if reg & top != 0 {
                    (reg << 1) ^ polynomial
                } else {
                    reg << 1
                };
            }
            *slot = reg & mask;
        }
        let mut sliced = [[0u32; 256]; 8];
        if width >= 8 {
            let shift = 32 - width;
            // sliced[0] is the byte table left-aligned; sliced[k] advances
            // sliced[k-1] by one zero input byte, so sliced[k][b] is the
            // register contribution of byte b seen k steps earlier.
            for b in 0..256 {
                sliced[0][b] = byte[b] << shift;
            }
            for k in 1..8 {
                for b in 0..256 {
                    let prev = sliced[k - 1][b];
                    sliced[k][b] = (prev << 8) ^ sliced[0][(prev >> 24) as usize];
                }
            }
        }
        CrcTables { byte, sliced }
    }

    /// Tables are pure functions of `(width, polynomial)` and every
    /// fingerprint unit of every cell wants the same ones, so they are
    /// built once per process and shared (9 KB apiece).
    fn shared(width: u32, polynomial: u32) -> Arc<CrcTables> {
        type TableCache = Mutex<HashMap<(u32, u32), Arc<CrcTables>>>;
        static CACHE: OnceLock<TableCache> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let mut cache = cache.lock().expect("CRC table cache poisoned");
        cache
            .entry((width, polynomial))
            .or_insert_with(|| Arc::new(CrcTables::build(width, polynomial)))
            .clone()
    }
}

/// A table-driven CRC engine with a configurable width up to 32 bits.
///
/// Hardware fingerprint units use parallel CRC circuits (Albertengo & Sisto);
/// functionally a CRC is a linear feedback shift register, which this
/// software model reproduces exactly — [`BitwiseCrc`] is that reference
/// LFSR, and the property suite checks this engine against it bit for bit.
/// Internally, widths of 8 and above consume input in slice-by-8 steps
/// (eight bytes per table fold, the common case via
/// [`consume_u64`](Self::consume_u64)); the result is identical to the
/// byte-at-a-time update by GF(2) linearity of the CRC. The default
/// polynomial for 16-bit operation is CCITT (0x1021).
///
/// # Examples
///
/// ```
/// use reunion_fingerprint::Crc;
///
/// let mut crc = Crc::new_16();
/// crc.consume(b"123456789");
/// assert_eq!(crc.value(), 0x29B1); // CRC-16/CCITT-FALSE check value
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Crc {
    width: u32,
    tables: Arc<CrcTables>,
    state: u32,
    init: u32,
}

impl Crc {
    /// Creates a CRC engine.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 32.
    pub fn new(width: u32, polynomial: u32, init: u32) -> Self {
        assert!((1..=32).contains(&width), "CRC width must be in 1..=32");
        let mask: u32 = if width == 32 {
            u32::MAX
        } else {
            (1 << width) - 1
        };
        Crc {
            width,
            tables: CrcTables::shared(width, polynomial),
            state: init & mask,
            init: init & mask,
        }
    }

    /// The standard 16-bit CCITT CRC used throughout the paper's analysis.
    pub fn new_16() -> Self {
        Crc::new(16, 0x1021, 0xFFFF)
    }

    /// The CRC register width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    #[inline]
    fn mask(&self) -> u32 {
        if self.width == 32 {
            u32::MAX
        } else {
            (1 << self.width) - 1
        }
    }

    /// Feeds bytes into the register.
    pub fn consume(&mut self, bytes: &[u8]) {
        if self.width < 8 {
            // Narrow CRCs: fold each byte into the low bits (no aligned
            // slice-by-8 form exists below one input byte of width).
            let mask = self.mask();
            for &b in bytes {
                let idx = (self.state ^ b as u32) & 0xFF;
                self.state = self.tables.byte[idx as usize] & mask;
            }
            return;
        }
        // Left-align the register so every width shares one fold shape.
        let shift = 32 - self.width;
        let mut s = self.state << shift;
        let t = &self.tables.sliced;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            s = t[7][(((s >> 24) as u8) ^ c[0]) as usize]
                ^ t[6][(((s >> 16) as u8) ^ c[1]) as usize]
                ^ t[5][(((s >> 8) as u8) ^ c[2]) as usize]
                ^ t[4][((s as u8) ^ c[3]) as usize]
                ^ t[3][c[4] as usize]
                ^ t[2][c[5] as usize]
                ^ t[1][c[6] as usize]
                ^ t[0][c[7] as usize];
        }
        for &b in chunks.remainder() {
            s = (s << 8) ^ t[0][(((s >> 24) as u8) ^ b) as usize];
        }
        self.state = s >> shift;
    }

    /// Feeds a 64-bit word (big-endian byte order, matching the hardware's
    /// fixed lane assignment) — exactly one slice-by-8 fold.
    pub fn consume_u64(&mut self, word: u64) {
        self.consume(&word.to_be_bytes());
    }

    /// The current CRC register value.
    pub fn value(&self) -> u32 {
        self.state
    }

    /// Resets to the initial register value.
    pub fn reset(&mut self) {
        self.state = self.init;
    }

    /// Returns the register and resets — the per-interval emit operation.
    pub fn finish(&mut self) -> u32 {
        let v = self.state;
        self.reset();
        v
    }
}

/// The bit-serial reference LFSR: one register shift per input *bit*.
///
/// This is the textbook definition the table-driven [`Crc`] must agree
/// with; it exists as a public engine so property tests (and anyone
/// auditing the fingerprint model) can compare the optimized
/// implementation against first principles on arbitrary streams. Not for
/// hot paths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitwiseCrc {
    width: u32,
    polynomial: u32,
    state: u32,
    init: u32,
}

impl BitwiseCrc {
    /// Creates a bit-serial CRC engine with the same semantics as
    /// [`Crc::new`].
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 32.
    pub fn new(width: u32, polynomial: u32, init: u32) -> Self {
        assert!((1..=32).contains(&width), "CRC width must be in 1..=32");
        let mask: u32 = if width == 32 {
            u32::MAX
        } else {
            (1 << width) - 1
        };
        BitwiseCrc {
            width,
            polynomial,
            state: init & mask,
            init: init & mask,
        }
    }

    /// Feeds bytes into the register, one LFSR step per bit.
    pub fn consume(&mut self, bytes: &[u8]) {
        let mask: u32 = if self.width == 32 {
            u32::MAX
        } else {
            (1 << self.width) - 1
        };
        let top: u32 = 1 << (self.width - 1);
        for &b in bytes {
            // MSB-first: the byte enters aligned against the register top
            // (folded into the low bits for widths under one byte).
            self.state ^= if self.width >= 8 {
                (b as u32) << (self.width - 8)
            } else {
                b as u32
            };
            self.state &= mask;
            for _ in 0..8 {
                self.state = if self.state & top != 0 {
                    ((self.state << 1) ^ self.polynomial) & mask
                } else {
                    (self.state << 1) & mask
                };
            }
        }
    }

    /// Feeds a 64-bit word (big-endian, same lane order as
    /// [`Crc::consume_u64`]).
    pub fn consume_u64(&mut self, word: u64) {
        self.consume(&word.to_be_bytes());
    }

    /// The current CRC register value.
    pub fn value(&self) -> u32 {
        self.state
    }

    /// Resets to the initial register value.
    pub fn reset(&mut self) {
        self.state = self.init;
    }

    /// Returns the register and resets.
    pub fn finish(&mut self) -> u32 {
        let v = self.state;
        self.reset();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ccitt_check_value() {
        let mut crc = Crc::new_16();
        crc.consume(b"123456789");
        assert_eq!(crc.value(), 0x29B1);
    }

    #[test]
    fn bitwise_reference_matches_check_value() {
        let mut crc = BitwiseCrc::new(16, 0x1021, 0xFFFF);
        crc.consume(b"123456789");
        assert_eq!(crc.value(), 0x29B1);
    }

    #[test]
    fn order_sensitivity() {
        let mut a = Crc::new_16();
        let mut b = Crc::new_16();
        a.consume(b"ab");
        b.consume(b"ba");
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn finish_resets() {
        let mut crc = Crc::new_16();
        crc.consume(b"xyz");
        let v1 = crc.finish();
        crc.consume(b"xyz");
        let v2 = crc.finish();
        assert_eq!(v1, v2);
        assert_eq!(crc.value(), 0xFFFF);
    }

    #[test]
    fn value_fits_width() {
        for width in [8u32, 12, 16, 24, 32] {
            let mut crc = Crc::new(width, 0x1021, 0);
            crc.consume_u64(0xDEAD_BEEF_CAFE_F00D);
            if width < 32 {
                assert!(crc.value() < (1 << width), "width {width}");
            }
        }
    }

    #[test]
    fn sliced_matches_bitwise_across_widths_and_splits() {
        // Deterministic pseudo-random stream; every split point exercises a
        // different mix of 8-byte folds and tail bytes.
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let stream: Vec<u8> = (0..64)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        for width in [5u32, 8, 12, 16, 24, 32] {
            let mut fast = Crc::new(width, 0x1021, !0);
            let mut reference = BitwiseCrc::new(width, 0x1021, !0);
            for split in 0..stream.len() {
                fast.reset();
                reference.reset();
                fast.consume(&stream[..split]);
                fast.consume(&stream[split..]);
                reference.consume(&stream);
                assert_eq!(
                    fast.value(),
                    reference.value(),
                    "width {width} split {split}"
                );
            }
        }
    }

    #[test]
    fn distinct_words_rarely_collide() {
        let mut seen = std::collections::HashSet::new();
        let mut collisions = 0;
        for i in 0..4096u64 {
            let mut crc = Crc::new_16();
            crc.consume_u64(i);
            if !seen.insert(crc.value()) {
                collisions += 1;
            }
        }
        // 4096 samples into 65536 buckets: expect ~128 collisions by
        // birthday statistics; far fewer than total.
        assert!(collisions < 400, "collisions={collisions}");
    }

    #[test]
    #[should_panic(expected = "width must be")]
    fn rejects_zero_width() {
        let _ = Crc::new(0, 1, 0);
    }
}
