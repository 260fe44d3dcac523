//! The read-only base layer of a memory image.

use std::sync::Arc;

use crate::{Addr, LINE_BYTES, WORDS_PER_LINE};

/// A workload's initial memory, frozen: a word list sorted by address plus
/// a radix index over it.
///
/// An experiment grid builds dozens of systems from one workload, and the
/// workload's image can be half a million words (em3d's pointer ring).
/// `BaseImage` holds that list once: it keeps the caller's `Arc` when the
/// list is already in address order (every generated and kernel image is),
/// and adds only the index — one `u32` per bucket, about one bucket per
/// word — so the image costs at most 24 B per word, where a hash map of the
/// same words costs ≈ 34 B on top of the list's 16 B. Every system reads it
/// under its own write layer ([`SparseMemory::over`](crate::SparseMemory::over)).
///
/// Lookup: word address `w` falls in bucket `(w - min) >> shift`, whose
/// entries are `words[index[b]..index[b + 1]]`; a binary search of that
/// short slice finds the word. A line's words are adjacent in the list, so
/// [`read_line`](Self::read_line) locates the line once and walks it.
///
/// # Examples
///
/// ```
/// use reunion_isa::{Addr, BaseImage};
///
/// // Out of order, with a repeated word: sorted, and the later entry wins.
/// let words = vec![(Addr::new(0x88), 2), (Addr::new(0x80), 1), (Addr::new(0x88), 3)];
/// let base = BaseImage::new(words.into());
/// assert_eq!(base.get(Addr::new(0x80)), Some(1));
/// assert_eq!(base.get(Addr::new(0x8C)), Some(3)); // any byte of the word
/// assert_eq!(base.get(Addr::new(0x90)), None);
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct BaseImage {
    /// Word-aligned addresses, strictly ascending.
    words: Arc<[(Addr, u64)]>,
    /// The first word address (0 when empty).
    min: u64,
    /// Bucket width, as a power of two in bytes.
    shift: u32,
    /// Bucket `b` holds `words[index[b]..index[b + 1]]`; one more entry
    /// than there are buckets.
    index: Box<[u32]>,
}

impl BaseImage {
    /// Freezes `words` (later entries win for a repeated word). Keeps the
    /// list itself when its addresses are word-aligned and strictly
    /// ascending; otherwise sorts a copy and drops all but the last entry
    /// per word.
    ///
    /// # Panics
    ///
    /// Panics if the list holds more than `u32::MAX` words.
    pub fn new(words: Arc<[(Addr, u64)]>) -> Self {
        let in_order = words.iter().all(|&(a, _)| a == a.word())
            && words.windows(2).all(|pair| pair[0].0 < pair[1].0);
        let words = if in_order { words } else { normalized(&words) };
        let len = u32::try_from(words.len()).expect("a base image holds fewer than 2^32 words");
        let (Some(&(first, _)), Some(&(last, _))) = (words.first(), words.last()) else {
            return BaseImage {
                words,
                min: 0,
                shift: 0,
                index: Box::new([0]),
            };
        };
        let min = first.as_u64();
        let span = last.as_u64() - min;
        // The fewest bits that keep `span >> shift` below the bucket count.
        let buckets_log2 = (len as usize).next_power_of_two().trailing_zeros();
        let shift = (u64::BITS - span.leading_zeros()).saturating_sub(buckets_log2);
        let buckets = (span >> shift) as usize + 1;
        let mut index = vec![0u32; buckets + 1];
        for &(addr, _) in words.iter() {
            index[((addr.as_u64() - min) >> shift) as usize + 1] += 1;
        }
        for b in 1..index.len() {
            index[b] += index[b - 1];
        }
        BaseImage {
            words,
            min,
            shift,
            index: index.into(),
        }
    }

    /// The value of the word containing `addr`, if the image holds it.
    #[inline]
    pub fn get(&self, addr: Addr) -> Option<u64> {
        let w = addr.word();
        match self.words.get(self.lower_bound(w.as_u64())) {
            Some(&(a, value)) if a == w => Some(value),
            _ => None,
        }
    }

    /// Overwrites `out[i]` with the image's word `i` of cache line `line`
    /// (the line *index*, [`Addr::line_index`]) wherever the image holds it.
    #[inline]
    pub fn read_line(&self, line: u64, out: &mut [u64; WORDS_PER_LINE]) {
        let first = line * LINE_BYTES;
        let from = self.lower_bound(first);
        for &(addr, value) in &self.words[from..] {
            let offset = addr.as_u64() - first;
            if offset >= LINE_BYTES {
                break;
            }
            out[(offset / 8) as usize] = value;
        }
    }

    /// The shared word list, in address order.
    pub fn words(&self) -> &Arc<[(Addr, u64)]> {
        &self.words
    }

    /// Entries in the radix index (buckets + 1): the image's cost beyond
    /// its word list, at 4 bytes each.
    pub fn index_len(&self) -> usize {
        self.index.len()
    }

    /// The position of the first word at or above word address `w`.
    #[inline]
    fn lower_bound(&self, w: u64) -> usize {
        let Some(offset) = w.checked_sub(self.min) else {
            return 0;
        };
        let bucket = offset >> self.shift;
        if bucket >= (self.index.len() - 1) as u64 {
            return self.words.len();
        }
        let (start, end) = (
            self.index[bucket as usize] as usize,
            self.index[bucket as usize + 1] as usize,
        );
        start + self.words[start..end].partition_point(|&(a, _)| a.as_u64() < w)
    }
}

/// `words` word-aligned, sorted by address, keeping the last entry of
/// each word.
fn normalized(words: &[(Addr, u64)]) -> Arc<[(Addr, u64)]> {
    let mut sorted: Vec<(Addr, u64)> = words.iter().map(|&(a, v)| (a.word(), v)).collect();
    // Stable, so a word's entries keep their list order and the last wins.
    sorted.sort_by_key(|&(a, _)| a);
    let mut out: Vec<(Addr, u64)> = Vec::with_capacity(sorted.len());
    for entry in sorted {
        match out.last_mut() {
            Some(last) if last.0 == entry.0 => *last = entry,
            _ => out.push(entry),
        }
    }
    out.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(words: &[(u64, u64)]) -> BaseImage {
        BaseImage::new(words.iter().map(|&(a, v)| (Addr::new(a), v)).collect())
    }

    /// The property suite probes a small address window; these are the
    /// ends of the address space, where `(w - min) >> shift` and the line
    /// arithmetic would wrap if they could.
    #[test]
    fn the_ends_of_the_address_space_index_without_wrapping() {
        let top = !7u64;
        let one = image(&[(top, 5)]);
        assert_eq!(one.get(Addr::new(u64::MAX)), Some(5));
        assert_eq!(one.get(Addr::new(0)), None);
        let mut line = [7; WORDS_PER_LINE];
        one.read_line(u64::MAX / LINE_BYTES, &mut line);
        assert_eq!(line, [7, 7, 7, 7, 7, 7, 7, 5]);

        let wide = image(&[(0, 1), (8, 2), (top, 3)]);
        assert!(wide.index_len() <= 2 * 3 + 2);
        assert_eq!(wide.get(Addr::new(8)), Some(2));
        assert_eq!(wide.get(Addr::new(16)), None);
        assert_eq!(wide.get(Addr::new(top)), Some(3));
        wide.read_line(0, &mut line);
        assert_eq!(line[..3], [1, 2, 7]);
    }
}
