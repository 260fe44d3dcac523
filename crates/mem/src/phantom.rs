//! Phantom-request strengths and arbitrary-data synthesis.

use std::fmt;

/// How diligently a phantom request searches for coherent data (§4.2).
///
/// A phantom request is a non-coherent read issued on behalf of a mute core.
/// It always produces a reply and grants write permission within the mute
/// hierarchy, but only stronger variants bother returning coherent data:
///
/// * [`Null`](PhantomStrength::Null) — returns arbitrary data on any L1
///   miss. Trivial hardware, catastrophic incoherence rate (Table 3).
/// * [`Shared`](PhantomStrength::Shared) — checks the shared L2; arbitrary
///   data only on L2 misses.
/// * [`Global`](PhantomStrength::Global) — checks the shared cache, private
///   vocal caches, and issues off-chip reads: the best approximation of
///   coherence and the paper's default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhantomStrength {
    /// Arbitrary data on every L1 miss.
    Null,
    /// Coherent data on L2 hits only.
    Shared,
    /// Coherent data from anywhere on- or off-chip (default).
    #[default]
    Global,
}

impl PhantomStrength {
    /// All strengths, weakest first (handy for sweeps).
    pub const ALL: [PhantomStrength; 3] = [
        PhantomStrength::Null,
        PhantomStrength::Shared,
        PhantomStrength::Global,
    ];
}

impl fmt::Display for PhantomStrength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PhantomStrength::Null => "null",
            PhantomStrength::Shared => "shared",
            PhantomStrength::Global => "global",
        };
        f.write_str(name)
    }
}

/// Deterministically synthesises the "arbitrary data" a weak phantom reply
/// returns for `word_addr`, distinguished by a fill `epoch` so that two
/// garbage fills of the same line differ.
///
/// Determinism keeps whole simulations replayable: the same seed produces
/// the same incoherence events, recoveries, and final state.
pub(crate) fn garbage_word(word_addr: u64, epoch: u64) -> u64 {
    let mut z = word_addr
        .rotate_left(17)
        .wrapping_add(epoch.wrapping_mul(0xA24B_AED4_963E_E407))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_weak_to_strong() {
        assert!(PhantomStrength::Null < PhantomStrength::Shared);
        assert!(PhantomStrength::Shared < PhantomStrength::Global);
        assert_eq!(PhantomStrength::default(), PhantomStrength::Global);
    }

    #[test]
    fn display_names() {
        assert_eq!(PhantomStrength::Null.to_string(), "null");
        assert_eq!(PhantomStrength::Shared.to_string(), "shared");
        assert_eq!(PhantomStrength::Global.to_string(), "global");
    }

    #[test]
    fn garbage_is_deterministic_but_epoch_sensitive() {
        assert_eq!(garbage_word(0x40, 1), garbage_word(0x40, 1));
        assert_ne!(garbage_word(0x40, 1), garbage_word(0x40, 2));
        assert_ne!(garbage_word(0x40, 1), garbage_word(0x48, 1));
    }

    #[test]
    fn all_lists_every_strength() {
        assert_eq!(PhantomStrength::ALL.len(), 3);
    }
}
