//! Parity-tree space compression.

/// A single-cycle space compressor: XOR-folds an `M`-bit update vector down
/// to `N` output bits using interleaved parity trees.
///
/// Wide superscalar retirement can produce more than 256 bits of state per
/// cycle — more than feasible hash circuits consume in one clock (§4.3).
/// Parity trees reduce the raw vector to the CRC's input width in a single
/// cycle, at the cost of a bounded loss in error coverage (any *even* number
/// of flips within one tree aliases).
///
/// Bit `i` of the input feeds output lane `i % n_out`, matching the
/// multiplexed parity-tree construction of Chakrabarty & Hayes.
///
/// # Examples
///
/// ```
/// use reunion_fingerprint::ParityTree;
///
/// let tree = ParityTree::new(16);
/// let a = tree.compress(&[0xFF00]);
/// let b = tree.compress(&[0x00FF]);
/// assert_eq!(a.len(), 2); // 16 bits = 2 bytes
/// assert_ne!(a, b);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParityTree {
    n_out: u32,
}

impl ParityTree {
    /// Creates a compressor with `n_out` output bits.
    ///
    /// # Panics
    ///
    /// Panics if `n_out` is zero or not a multiple of 8 (byte-oriented
    /// downstream CRC) or greater than 64.
    pub fn new(n_out: u32) -> Self {
        assert!(
            n_out > 0 && n_out <= 64 && n_out % 8 == 0,
            "parity output width must be a byte multiple in 8..=64"
        );
        ParityTree { n_out }
    }

    /// Output width in bits.
    pub(crate) fn output_bits(&self) -> u32 {
        self.n_out
    }

    /// Folds `words` (an arbitrary-width bit vector, 64 bits per element)
    /// into `n_out` bits, returned as big-endian bytes for the CRC stage.
    pub fn compress(&self, words: &[u64]) -> Vec<u8> {
        let mut lanes = 0u64;
        for (wi, &word) in words.iter().enumerate() {
            let base = (wi as u32 * 64) % self.n_out;
            // Each input bit i lands in lane (base + i) mod n_out.
            let mut w = word;
            let mut bit = 0u32;
            while w != 0 {
                let tz = w.trailing_zeros();
                bit += tz;
                let lane = (base + bit) % self.n_out;
                lanes ^= 1 << lane;
                w >>= tz;
                w >>= 1; // clear the bit just processed
                bit += 1;
            }
        }
        let n_bytes = (self.n_out / 8) as usize;
        lanes.to_be_bytes()[8 - n_bytes..].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bit_flip_changes_output() {
        let tree = ParityTree::new(16);
        let base = tree.compress(&[0x0123_4567_89AB_CDEF]);
        for bit in 0..64 {
            let flipped = tree.compress(&[0x0123_4567_89AB_CDEF ^ (1 << bit)]);
            assert_ne!(base, flipped, "flip of bit {bit} must be detected");
        }
    }

    #[test]
    fn even_flips_in_same_lane_alias() {
        // Bits 0 and 16 of word 0 both map to lane 0 of a 16-bit tree:
        // flipping both must alias — the documented coverage loss.
        let tree = ParityTree::new(16);
        let a = tree.compress(&[0]);
        let b = tree.compress(&[(1 << 0) | (1 << 16)]);
        assert_eq!(a, b);
    }

    #[test]
    fn multi_word_offsets_decorrelate() {
        // 64-bit words at different positions shift lanes by 64 % n_out, so
        // the same word in different slots compresses differently when
        // n_out does not divide 64 evenly... for 16 it does (64%16==0), use 24.
        let tree = ParityTree::new(24);
        let a = tree.compress(&[5, 0]);
        let b = tree.compress(&[0, 5]);
        assert_ne!(a, b);
    }

    #[test]
    fn output_length_matches_width() {
        assert_eq!(ParityTree::new(8).compress(&[1]).len(), 1);
        assert_eq!(ParityTree::new(32).compress(&[1]).len(), 4);
        assert_eq!(ParityTree::new(64).compress(&[1]).len(), 8);
    }

    #[test]
    fn empty_input_is_zero() {
        let tree = ParityTree::new(16);
        assert_eq!(tree.compress(&[]), vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "byte multiple")]
    fn rejects_non_byte_width() {
        let _ = ParityTree::new(12);
    }
}
