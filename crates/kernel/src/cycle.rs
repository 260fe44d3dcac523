//! Strongly-typed simulation time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A simulation timestamp measured in processor clock cycles.
///
/// `Cycle` is a transparent wrapper around `u64` that prevents accidentally
/// mixing cycle counts with instruction counts or other integers. Arithmetic
/// with plain `u64` offsets is supported because latencies are naturally
/// expressed as raw cycle deltas.
///
/// # Examples
///
/// ```
/// use reunion_kernel::Cycle;
///
/// let start = Cycle::ZERO;
/// let later = start + 35; // an L2 hit later
/// assert_eq!(later.as_u64(), 35);
/// assert_eq!(later - start, 35);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycle(u64);

impl Cycle {
    /// The beginning of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a cycle timestamp from a raw count.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the number of cycles from `earlier` to `self`, or zero if
    /// `earlier` is in the future.
    #[inline]
    pub const fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Returns the later of two timestamps.
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;

    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;

    /// Number of cycles between two timestamps.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(self.0 >= rhs.0, "cycle subtraction went negative");
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(raw: u64) -> Self {
        Cycle(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(Cycle::default(), Cycle::ZERO);
    }

    #[test]
    fn add_and_subtract_round_trip() {
        let a = Cycle::new(100);
        let b = a + 40;
        assert_eq!(b - a, 40);
        assert_eq!(b.as_u64(), 140);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = Cycle::new(5);
        let late = Cycle::new(9);
        assert_eq!(early.saturating_since(late), 0);
        assert_eq!(late.saturating_since(early), 4);
    }

    #[test]
    fn ordering_follows_raw_count() {
        assert!(Cycle::new(1) < Cycle::new(2));
        assert_eq!(Cycle::new(7).max(Cycle::new(3)), Cycle::new(7));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Cycle::new(12).to_string(), "cycle 12");
    }

    #[test]
    fn add_assign_advances() {
        let mut c = Cycle::ZERO;
        c += 3;
        assert_eq!(c, Cycle::new(3));
    }
}
