//! Memory addresses and geometry constants.

use std::fmt;

/// Cache line size in bytes (Table 1: 64-byte lines).
pub const LINE_BYTES: u64 = 64;

/// 8-byte words per cache line.
pub const WORDS_PER_LINE: usize = (LINE_BYTES / 8) as usize;

/// Page size in bytes (Table 1: 8 KB pages).
pub(crate) const PAGE_BYTES: u64 = 8192;

/// A byte address in the simulated flat address space.
///
/// The simulator uses an identity virtual-to-physical mapping — the TLB
/// models translation *timing* (hits, misses, software handlers), which is
/// what the paper's results depend on, not address remapping.
///
/// # Examples
///
/// ```
/// use reunion_isa::{Addr, LINE_BYTES};
///
/// let a = Addr::new(0x1234);
/// assert_eq!(a.line().as_u64() % LINE_BYTES, 0);
/// assert_eq!(Addr::new(0x40).line_index(), 1);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte offset.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Raw byte offset.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The address rounded down to its cache-line base.
    #[inline]
    pub const fn line(self) -> Addr {
        Addr(self.0 & !(LINE_BYTES - 1))
    }

    /// The cache-line index (address divided by the line size).
    #[inline]
    pub const fn line_index(self) -> u64 {
        self.0 / LINE_BYTES
    }

    /// Byte offset within the cache line.
    #[inline]
    pub const fn line_offset(self) -> u64 {
        self.0 % LINE_BYTES
    }

    /// The page number (address divided by the page size).
    #[inline]
    pub const fn page(self) -> u64 {
        self.0 / PAGE_BYTES
    }

    /// The address advanced by `bytes`.
    #[inline]
    pub const fn offset(self, bytes: u64) -> Addr {
        Addr(self.0.wrapping_add(bytes))
    }

    /// The 8-byte-aligned word base containing this address.
    #[inline]
    pub const fn word(self) -> Addr {
        Addr(self.0 & !7)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#012x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rounds_down() {
        assert_eq!(Addr::new(0x7F).line(), Addr::new(0x40));
        assert_eq!(Addr::new(0x40).line(), Addr::new(0x40));
        assert_eq!(Addr::new(0x3F).line(), Addr::new(0));
    }

    #[test]
    fn line_index_and_offset_decompose() {
        let a = Addr::new(3 * LINE_BYTES + 5);
        assert_eq!(a.line_index(), 3);
        assert_eq!(a.line_offset(), 5);
    }

    #[test]
    fn page_uses_8k_pages() {
        assert_eq!(Addr::new(PAGE_BYTES - 1).page(), 0);
        assert_eq!(Addr::new(PAGE_BYTES).page(), 1);
    }

    #[test]
    fn word_aligns_to_8_bytes() {
        assert_eq!(Addr::new(0x17).word(), Addr::new(0x10));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Addr::new(0x40).to_string(), "0x0000000040");
    }
}
