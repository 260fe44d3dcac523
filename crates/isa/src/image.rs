//! The read-only base layer of a memory image.

use crate::{Addr, LINE_BYTES, WORDS_PER_LINE};

/// A workload's initial memory, frozen as strided runs: each run is a
/// start address, a power-of-two stride and a slice of values.
///
/// An experiment grid builds dozens of systems from one workload, and the
/// workload's image can be half a million words (em3d's pointer ring).
/// Every image the repo generates has a regular shape — the suite's lock,
/// hot-line, flag and ring regions are stride-64 runs (one word a line), a
/// kernel's `.data` words stride-8 runs — so `BaseImage` stores a word as
/// its 8-byte value alone; an address costs 20 B per run (start, value
/// index, length, stride). em3d's 525 076 words in 4 runs cost 8.00 B a
/// word. Every system reads it under its own write layer
/// ([`SparseMemory::over`](crate::SparseMemory::over)).
///
/// Lookup: one `partition_point` over the run starts (a handful per image)
/// finds the run that could hold a word; a mask test and a shift give its
/// value. [`read_line`](Self::read_line) finds a line's first run once and
/// walks it.
///
/// # Examples
///
/// ```
/// use reunion_isa::{Addr, BaseImage};
///
/// // Out of order, with a repeated word: sorted, and the later entry wins.
/// let words = [(Addr::new(0x88), 2), (Addr::new(0x80), 1), (Addr::new(0x88), 3)];
/// let base = BaseImage::new(words);
/// assert_eq!(base.get(Addr::new(0x80)), Some(1));
/// assert_eq!(base.get(Addr::new(0x8C)), Some(3)); // any byte of the word
/// assert_eq!(base.get(Addr::new(0x90)), None);
/// assert_eq!(base.len(), 2);
/// assert_eq!(base.heap_bytes(), 2 * 8 + 20); // one stride-8 run
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct BaseImage {
    /// Each run's first word address, strictly ascending; a run's words all
    /// lie below the next run's start.
    starts: Box<[u64]>,
    /// The runs, in the order of `starts`.
    runs: Box<[Run]>,
    /// Every run's values, run after run.
    values: Box<[u64]>,
}

/// One run of a [`BaseImage`]: `len` words `1 << shift` bytes apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run {
    /// The index of the run's first value in `values`.
    first: u32,
    /// Words in the run, at least one.
    len: u32,
    /// The stride's log2 (3 for a lone word, which has no stride).
    shift: u32,
}

impl BaseImage {
    /// Freezes `words`; a later entry for the same word wins. Word-aligned
    /// input in strictly ascending order (every generated and kernel image)
    /// streams straight into runs; any other input is collected and sorted
    /// stably first.
    ///
    /// # Panics
    ///
    /// Panics if the image holds more than `u32::MAX - 1` words.
    pub fn new(words: impl IntoIterator<Item = (Addr, u64)>) -> Self {
        let mut words = words.into_iter();
        let mut runs = RunBuilder::with_capacity(words.size_hint().0);
        while let Some((addr, value)) = words.next() {
            if addr != addr.word() || runs.last.is_some_and(|last| addr.as_u64() < last) {
                let rest = std::iter::once((addr, value)).chain(words);
                return Self::sorted(runs.finish().entries().chain(rest));
            }
            runs.push(addr.as_u64(), value);
        }
        runs.finish()
    }

    /// The image of `words` in any order, through a stable sort.
    fn sorted(words: impl Iterator<Item = (Addr, u64)>) -> Self {
        let mut words: Vec<(u64, u64)> = words.map(|(a, v)| (a.word().as_u64(), v)).collect();
        // Stable, so a word's entries keep their input order and the last wins.
        words.sort_by_key(|&(addr, _)| addr);
        let mut runs = RunBuilder::with_capacity(words.len());
        for (addr, value) in words {
            runs.push(addr, value);
        }
        runs.finish()
    }

    /// The value of the word containing `addr`, if the image holds it.
    #[inline]
    pub fn get(&self, addr: Addr) -> Option<u64> {
        let w = addr.word().as_u64();
        let i = self
            .starts
            .partition_point(|&start| start <= w)
            .checked_sub(1)?;
        let run = self.runs[i];
        let offset = w - self.starts[i];
        let k = offset >> run.shift;
        (offset & ((1 << run.shift) - 1) == 0 && k < u64::from(run.len))
            .then(|| self.values[run.first as usize + k as usize])
    }

    /// Overwrites `out[i]` with the image's word `i` of cache line `line`
    /// (the line *index*, [`Addr::line_index`]) wherever the image holds it.
    #[inline]
    pub fn read_line(&self, line: u64, out: &mut [u64; WORDS_PER_LINE]) {
        let first = line * LINE_BYTES;
        let last = first + (LINE_BYTES - 8);
        // The run that starts at or before the line, if any, then every run
        // that starts inside it.
        let from = self.starts.partition_point(|&start| start <= first);
        for i in from.saturating_sub(1)..self.starts.len() {
            let (start, run) = (self.starts[i], self.runs[i]);
            if start > last {
                break;
            }
            // The run's first word at or above `first`: offset rounded up
            // to a stride.
            let mut k = match first.checked_sub(start) {
                Some(behind) => {
                    (behind >> run.shift) + u64::from(behind & ((1 << run.shift) - 1) != 0)
                }
                None => 0,
            };
            while k < u64::from(run.len) {
                let addr = start + (k << run.shift);
                if addr > last {
                    break;
                }
                out[((addr - first) >> 3) as usize] = self.values[run.first as usize + k as usize];
                k += 1;
            }
        }
    }

    /// Words the image holds.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the image holds no word.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The bytes the image owns on the heap: 8 per word plus 20 per run.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.starts)
            + std::mem::size_of_val(&*self.runs)
            + std::mem::size_of_val(&*self.values)
    }

    /// Every word and its value, in address order.
    fn entries(&self) -> impl Iterator<Item = (Addr, u64)> + '_ {
        self.starts
            .iter()
            .zip(self.runs.iter())
            .flat_map(|(&start, run)| {
                let values = &self.values[run.first as usize..][..run.len as usize];
                (0u64..)
                    .zip(values)
                    .map(move |(k, &value)| (Addr::new(start + (k << run.shift)), value))
            })
    }
}

/// Cuts a stream of word addresses, non-decreasing, into maximal runs.
struct RunBuilder {
    starts: Vec<u64>,
    runs: Vec<Run>,
    values: Vec<u64>,
    /// The last word pushed.
    last: Option<u64>,
}

impl RunBuilder {
    fn with_capacity(words: usize) -> Self {
        RunBuilder {
            starts: Vec::new(),
            runs: Vec::new(),
            values: Vec::with_capacity(words),
            last: None,
        }
    }

    /// Appends word `addr` (word-aligned, at or above the last one; the
    /// same word again overwrites its value). It extends the open run when
    /// it is one stride on, or sets a lone word's stride when the gap is a
    /// power of two; otherwise it opens a run.
    fn push(&mut self, addr: u64, value: u64) {
        if self.last == Some(addr) {
            *self.values.last_mut().expect("a pushed word holds a value") = value;
            return;
        }
        assert!(
            self.values.len() < u32::MAX as usize,
            "a base image holds fewer than 2^32 - 1 words"
        );
        match (self.last.map(|last| addr - last), self.runs.last_mut()) {
            (Some(gap), Some(run))
                if gap == 1 << run.shift || (run.len == 1 && gap.is_power_of_two()) =>
            {
                run.shift = gap.trailing_zeros();
                run.len += 1;
            }
            _ => {
                self.starts.push(addr);
                self.runs.push(Run {
                    first: self.values.len() as u32,
                    len: 1,
                    shift: 3,
                });
            }
        }
        self.values.push(value);
        self.last = Some(addr);
    }

    fn finish(self) -> BaseImage {
        BaseImage {
            starts: self.starts.into(),
            runs: self.runs.into(),
            values: self.values.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(words: &[(u64, u64)]) -> BaseImage {
        BaseImage::new(words.iter().map(|&(a, v)| (Addr::new(a), v)))
    }

    /// The property suite probes a small address window; these are the
    /// ends of the address space, where a run's offset and the line
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
        assert_eq!(wide.heap_bytes(), 3 * 8 + 2 * 20);
        assert_eq!(wide.get(Addr::new(8)), Some(2));
        assert_eq!(wide.get(Addr::new(16)), None);
        assert_eq!(wide.get(Addr::new(top)), Some(3));
        wide.read_line(0, &mut line);
        assert_eq!(line[..3], [1, 2, 7]);
    }

    /// A run whose last word is `!7`: one stride past it, `start + (len <<
    /// shift)`, wraps to the bottom of the address space, where no word of
    /// the run may appear.
    #[test]
    fn a_run_ending_at_the_top_word_does_not_wrap() {
        let top = !7u64;
        for shift in [3u32, 4, 6, 9] {
            let stride = 1u64 << shift;
            let words: Vec<(u64, u64)> = (0..4u64).map(|k| (top - (3 - k) * stride, k)).collect();
            let run = image(&words);
            assert_eq!(run.heap_bytes(), 4 * 8 + 20, "stride {stride}: one run");
            for &(addr, value) in &words {
                assert_eq!(run.get(Addr::new(addr)), Some(value));
            }
            let wrapped = top.wrapping_add(stride);
            assert_eq!(run.get(Addr::new(wrapped)), None, "stride {stride}");
            assert_eq!(run.get(Addr::new(0)), None);
            let mut line = [u64::MAX; WORDS_PER_LINE];
            run.read_line(0, &mut line);
            assert_eq!(line, [u64::MAX; WORDS_PER_LINE], "stride {stride}");
            run.read_line(top / LINE_BYTES, &mut line);
            assert_eq!(line[7], 3, "stride {stride}");
        }
    }

    #[test]
    fn runs_are_maximal_and_rebuild_their_input() {
        // Two stride-64 runs broken by a gap, a lone word between them, a
        // stride-8 run: four runs.
        let mut words: Vec<(u64, u64)> = (0..5).map(|i| (0x1000 + i * 64, i)).collect();
        words.push((0x1800, 9));
        words.extend((0..3).map(|i| (0x2018 + i * 64, 10 + i)));
        words.extend((0..9).map(|i| (0x4000 + i * 8, 20 + i)));
        let base = image(&words);
        assert_eq!(base.len(), words.len());
        // 0x1800 joins no run: 0x1800 - 0x1100 is no power of two.
        assert_eq!(base.heap_bytes(), 8 * words.len() + 20 * 4);
        let rebuilt: Vec<(u64, u64)> = base.entries().map(|(a, v)| (a.as_u64(), v)).collect();
        assert_eq!(rebuilt, words);
        // Reversed, with every word given twice: the later entry wins.
        let reversed = words.iter().rev();
        let twice: Vec<(u64, u64)> = reversed
            .clone()
            .map(|&(a, _)| (a, 0))
            .chain(reversed.copied())
            .collect();
        assert_eq!(image(&twice), base);
    }
}
