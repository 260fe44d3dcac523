//! Fast deterministic hashing for simulator-internal maps.
//!
//! `std`'s default `HashMap` hasher (SipHash behind a per-process random
//! seed) is built to resist collision attacks from untrusted keys. The
//! simulator's hot maps — sparse memory words and the stores pending
//! behind them — are keyed by its own addresses, so that defense buys
//! nothing and costs a long permutation per lookup on paths executed once
//! per simulated memory access. [`FastHasher`] replaces it with a fixed-seed multiply/rotate
//! mix: a few cycles per word, identical across processes and platforms.
//!
//! None of the maps using this hasher have output that depends on
//! iteration order (they are only ever probed point-wise), so swapping
//! the hasher cannot move a byte of any `BENCH_<id>.json` artifact; the
//! fixed seed additionally keeps memory layout reproducible run to run.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier (the splitmix64 increment); the multiply smears
/// every input bit across the high output bits, which is where `HashMap`
/// takes its bucket index from.
const MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fixed-seed multiply/rotate hasher for simulator-internal keys.
///
/// Not collision-resistant against adversarial keys — do not use it on
/// input that crosses a trust boundary. Every key the simulator hashes is
/// one it generated itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.state = (self.state.rotate_left(23) ^ v).wrapping_mul(MULT);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // One final avalanche so low-entropy keys (word-aligned addresses)
        // still populate the high bits the bucket index is taken from.
        let mut h = self.state;
        h ^= h >> 32;
        h = h.wrapping_mul(MULT);
        h ^ (h >> 29)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `HashMap` with the deterministic [`FastHasher`] — the map type of the
/// simulator's hot per-access paths. Construct with `FastHashMap::default()`.
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(v: impl Hash) -> u64 {
        let mut h = FastHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(0xDEAD_BEEFu64), hash_of(0xDEAD_BEEFu64));
        assert_eq!(hash_of((3u64, 7u64)), hash_of((3u64, 7u64)));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Word-aligned addresses differing in one low bit must not collide
        // systematically (they are the dominant key population).
        let hashes: Vec<u64> = (0..1024u64).map(|i| hash_of(i * 8)).collect();
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), hashes.len(), "collision among aligned keys");
    }

    #[test]
    fn byte_stream_tail_is_length_sensitive() {
        let a = {
            let mut h = FastHasher::default();
            h.write(b"abc");
            h.finish()
        };
        let b = {
            let mut h = FastHasher::default();
            h.write(b"abc\0");
            h.finish()
        };
        assert_ne!(a, b, "zero-padded tails of different lengths collide");
    }

    #[test]
    fn high_bits_spread_for_sequential_keys() {
        // HashMap derives the bucket from the top hash bits; sequential
        // keys must not share them.
        let tops: std::collections::HashSet<u64> = (0..256u64).map(|i| hash_of(i) >> 57).collect();
        assert!(
            tops.len() > 64,
            "only {} distinct top-7-bit values",
            tops.len()
        );
    }
}
