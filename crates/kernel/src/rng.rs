//! Deterministic pseudo-random number generation.
//!
//! The simulator must be bit-for-bit reproducible across runs and platforms:
//! the matched-pair sampling methodology compares the *same* measurement
//! windows across execution models, and debugging an input-incoherence event
//! requires replaying the exact interleaving. We therefore implement
//! xoshiro256\*\* directly (seeded via splitmix64) instead of relying on a
//! generator whose stream might change between library versions.

/// A deterministic xoshiro256\*\* pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use reunion_kernel::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // identical streams
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

/// The splitmix64 sequence used to expand a 64-bit seed into generator state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not start from the all-zero state.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "SimRng::below called with zero bound");
        // Lemire-style widening multiply; bias is negligible at our bounds
        // and, crucially, the mapping is deterministic.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Returns a uniformly distributed value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "SimRng::range requires lo < hi");
        lo + self.below(hi - lo)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    #[inline]
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Samples an index from a discrete distribution given by `weights`.
    ///
    /// Returns the index of the chosen weight. Zero-weight entries are never
    /// chosen unless all weights are zero, in which case index 0 is returned.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 {
            return 0;
        }
        let mut target = self.unit_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }
}

/// A deterministic 64-bit hash mixer for value synthesis.
///
/// Used to generate "arbitrary" data deterministically, e.g. the garbage
/// returned by weak phantom requests, as a pure function of its inputs.
#[inline]
pub(crate) fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Deterministically hashes `x` into 64 pseudo-random bits without
    /// touching generator state.
    ///
    /// This is the function used to synthesise "arbitrary data" for weak
    /// phantom-request replies: the same `(address, epoch)` always yields the
    /// same garbage, keeping whole-simulation runs reproducible.
    #[inline]
    pub fn hash_value(x: u64) -> u64 {
        mix64(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
        }
    }

    #[test]
    fn range_inclusive_exclusive() {
        let mut rng = SimRng::seed_from(4);
        for _ in 0..1000 {
            let v = rng.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = SimRng::seed_from(6);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn weighted_index_prefers_heavy_weights() {
        let mut rng = SimRng::seed_from(10);
        let weights = [0.0, 9.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[1] > counts[2] * 5);
    }

    #[test]
    fn weighted_index_all_zero_falls_back() {
        let mut rng = SimRng::seed_from(11);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), 0);
    }

    #[test]
    fn hash_value_is_pure() {
        assert_eq!(SimRng::hash_value(123), SimRng::hash_value(123));
        assert_ne!(SimRng::hash_value(123), SimRng::hash_value(124));
    }

    #[test]
    fn unit_f64_in_half_open_interval() {
        let mut rng = SimRng::seed_from(13);
        for _ in 0..1000 {
            let v = rng.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }
}
