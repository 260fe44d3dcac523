//! Architectural registers.

use std::fmt;

/// Number of architectural integer registers.
pub const NUM_REGS: usize = 32;

/// An architectural register name.
///
/// Register 0 is a normal register (unlike MIPS/RISC-V there is no hardwired
/// zero; generators simply avoid relying on one).
///
/// # Examples
///
/// ```
/// use reunion_isa::RegId;
///
/// let r = RegId::new(5);
/// assert_eq!(r.index(), 5);
/// assert_eq!(r.to_string(), "r5");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegId(u8);

impl RegId {
    /// Creates a register name.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_REGS`.
    #[inline]
    pub fn new(index: u8) -> Self {
        assert!(
            (index as usize) < NUM_REGS,
            "register index {index} out of range"
        );
        RegId(index)
    }

    /// The register number.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The architectural register file: 32 64-bit integer registers.
///
/// In the Reunion microarchitecture the ARF holds *safe state*: it is only
/// updated at retirement, after output comparison succeeds, and it is the
/// state restored by rollback recovery.
///
/// # Examples
///
/// ```
/// use reunion_isa::{RegFile, RegId};
///
/// let mut rf = RegFile::new();
/// rf.write(RegId::new(3), 99);
/// assert_eq!(rf.read(RegId::new(3)), 99);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct RegFile {
    regs: [u64; NUM_REGS],
}

impl RegFile {
    /// Creates a zero-initialized register file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a register.
    #[inline]
    pub fn read(&self, reg: RegId) -> u64 {
        self.regs[reg.index()]
    }

    /// Writes a register.
    #[inline]
    pub fn write(&mut self, reg: RegId, value: u64) {
        self.regs[reg.index()] = value;
    }

    /// Copies every register from `other`, the operation performed by
    /// phase two of the re-execution protocol (vocal ARF → mute ARF).
    pub(crate) fn copy_from(&mut self, other: &RegFile) {
        self.regs = other.regs;
    }

    /// Iterates over `(register, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RegId, u64)> + '_ {
        self.regs
            .iter()
            .enumerate()
            .map(|(i, &v)| (RegId::new(i as u8), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_zeroed() {
        let rf = RegFile::new();
        for i in 0..NUM_REGS {
            assert_eq!(rf.read(RegId::new(i as u8)), 0);
        }
    }

    #[test]
    fn write_then_read() {
        let mut rf = RegFile::new();
        rf.write(RegId::new(31), u64::MAX);
        assert_eq!(rf.read(RegId::new(31)), u64::MAX);
        assert_eq!(rf.read(RegId::new(30)), 0);
    }

    #[test]
    fn copy_from_duplicates_everything() {
        let mut a = RegFile::new();
        let mut b = RegFile::new();
        for i in 0..NUM_REGS {
            a.write(RegId::new(i as u8), i as u64 * 3 + 1);
        }
        b.copy_from(&a);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_register_panics() {
        let _ = RegId::new(NUM_REGS as u8);
    }

    #[test]
    fn iter_visits_all_registers() {
        let rf = RegFile::new();
        assert_eq!(rf.iter().count(), NUM_REGS);
    }
}
