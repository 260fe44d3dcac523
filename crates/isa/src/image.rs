//! The read-only base layer of a memory image.

use crate::{Addr, LINE_BYTES, WORDS_PER_LINE};

/// A workload's initial memory, frozen as strided runs: each run is a
/// start address, a power-of-two stride and the run's values — listed one
/// a word, or, when they step evenly, a first value and a step (word `k`
/// reads `first + k·step`, wrapping).
///
/// An experiment grid builds dozens of systems from one workload, and the
/// workload's image can be half a million words (em3d's pointer ring).
/// Every image the repo generates has a regular shape — the suite's lock,
/// hot-line, flag and ring regions are stride-64 runs (one word a line), a
/// kernel's `.data` words stride-8 runs — and so do its values: the lock,
/// hot-line and flag words are zeros, and each ring word holds the address
/// of the next line, 64 B on, but the last, which wraps to the first. So
/// `BaseImage` stores a listed word as its 8-byte value alone and a
/// progression as 16 B however long it is; an address costs 20 B per run
/// (start, value index, length, stride, kind). Eight or more evenly
/// stepping words in a row are stored as a progression, so an image never
/// costs more than its words listed would: 8 n + 20 r bytes for n words in
/// r runs. em3d's 525 076 words in 5 runs cost 188 B. Every system reads
/// it under its own write layer
/// ([`SparseMemory::over`](crate::SparseMemory::over)).
///
/// Construction: [`new`](Self::new) takes words, one at a time;
/// [`from_progressions`](Self::from_progressions) takes regions
/// ([`Progression`]) and adds the words that extend a progression in one
/// step, so a generated image costs its regions to build, not its words.
///
/// Lookup: one `partition_point` over the run starts (a handful per image)
/// finds the run that could hold a word; a mask test and a shift give its
/// index in the run, and the run's list or step its value.
/// [`read_line`](Self::read_line) finds a line's first run once and walks it.
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
///
/// // A ring of 1000 lines, each pointing at the next: one progression.
/// let next = |i: u64| 0x1000 + 64 * ((i + 1) % 1000);
/// let ring = BaseImage::new((0..1000).map(|i| (Addr::new(0x1000 + 64 * i), next(i))));
/// assert_eq!(ring.get(Addr::new(0x1000 + 64 * 998)), Some(0x1000 + 64 * 999));
/// assert_eq!(ring.get(Addr::new(0x1000 + 64 * 999)), Some(0x1000)); // the wrap
/// assert_eq!(ring.len(), 1000);
/// // 999 words as a first value and a step, the wrapping word listed.
/// assert_eq!(ring.heap_bytes(), 16 + 8 + 2 * 20);
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct BaseImage {
    /// Each run's first word address, strictly ascending; a run's words all
    /// lie below the next run's start.
    starts: Box<[u64]>,
    /// The runs, in the order of `starts`.
    runs: Box<[Run]>,
    /// Every run's values, run after run: a listed run's, one a word; a
    /// progression's first value and step.
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
    shift: u8,
    /// Whether `values` holds the run's first value and step rather than
    /// one value a word.
    progression: bool,
}

// 12 B a run, with its 8-byte start: the 20 B a run that `heap_bytes` and the
// 8 n + 20 r bound count on.
const _: () = assert!(std::mem::size_of::<Run>() == 12);

impl Run {
    /// The value of the run's word `k` (`k < len`) out of the image's
    /// `values`.
    #[inline]
    fn value(&self, values: &[u64], k: u64) -> u64 {
        let first = self.first as usize;
        if self.progression {
            values[first].wrapping_add(k.wrapping_mul(values[first + 1]))
        } else {
            values[first + k as usize]
        }
    }
}

/// A region of a memory image: `len` words `stride` bytes apart from
/// `start`, word `k` holding `first + k·step` (wrapping) — a lone word, a
/// zeroed region (step 0), or a pointer ring's lines (each word the next
/// one's address: `first = start + stride`, `step = stride`).
/// [`BaseImage::from_progressions`] freezes a list of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Progression {
    /// The first word's address.
    pub start: Addr,
    /// Bytes from one word to the next.
    pub stride: u64,
    /// Words in the region; 0 is an empty region.
    pub len: u64,
    /// The first word's value.
    pub first: u64,
    /// What each word's value adds to the one before, wrapping.
    pub step: u64,
}

impl Progression {
    /// The region of the single word `addr`, holding `value`.
    pub fn word(addr: Addr, value: u64) -> Self {
        Progression {
            start: addr,
            stride: 8,
            len: 1,
            first: value,
            step: 0,
        }
    }

    /// The region's words and their values, in order; addresses wrap past
    /// the top of the address space as the values do.
    pub fn words(self) -> impl Iterator<Item = (Addr, u64)> {
        (0..self.len).map(move |k| {
            let addr = self
                .start
                .as_u64()
                .wrapping_add(k.wrapping_mul(self.stride));
            (
                Addr::new(addr),
                self.first.wrapping_add(k.wrapping_mul(self.step)),
            )
        })
    }

    /// Whether the region's words stream into runs after word `last`: it
    /// is empty, or its words are word-aligned, strictly ascending without
    /// wrapping, and above `last`.
    fn ascends_from(&self, last: Option<u64>) -> bool {
        let start = self.start.as_u64();
        self.len == 0
            || (self.start == self.start.word()
                && !last.is_some_and(|last| start <= last)
                && (self.len == 1
                    || (self.stride > 0 && self.stride % 8 == 0 && self.end().is_some())))
    }

    /// The last word's address, `start + (len − 1)·stride`, if the region
    /// has one below the top of the address space.
    fn end(&self) -> Option<u64> {
        (self.len.checked_sub(1)?)
            .checked_mul(self.stride)?
            .checked_add(self.start.as_u64())
    }
}

impl BaseImage {
    /// Freezes `words`; a later entry for the same word wins. Word-aligned
    /// input in strictly ascending order (every kernel image) streams
    /// straight into runs; any other input, a repeated word included, is
    /// collected and sorted stably first.
    ///
    /// # Panics
    ///
    /// Panics if a run would hold, or the image would list, more than
    /// `u32::MAX` values.
    pub fn new(words: impl IntoIterator<Item = (Addr, u64)>) -> Self {
        Self::from_progressions(
            words
                .into_iter()
                .map(|(addr, value)| Progression::word(addr, value)),
        )
    }

    /// Freezes `regions`, the image of their words in order: equal to
    /// [`new`](Self::new) over them, word by word. Regions in ascending
    /// order, each word-aligned and above the last word of the one
    /// before (every generated image), are added a run at a time, so a
    /// region that extends a progression costs the same whatever its
    /// length; any other input goes through `new`'s sort.
    ///
    /// # Examples
    ///
    /// ```
    /// use reunion_isa::{Addr, BaseImage, Progression};
    ///
    /// // A ring of 1000 lines, each pointing at the next, as two regions.
    /// let ring = [
    ///     Progression { start: Addr::new(0x1000), stride: 64, len: 999, first: 0x1040, step: 64 },
    ///     Progression::word(Addr::new(0x1000 + 64 * 999), 0x1000),
    /// ];
    /// let base = BaseImage::from_progressions(ring);
    /// let next = |i: u64| 0x1000 + 64 * ((i + 1) % 1000);
    /// assert!(base == BaseImage::new((0..1000).map(|i| (Addr::new(0x1000 + 64 * i), next(i)))));
    /// ```
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    pub fn from_progressions(regions: impl IntoIterator<Item = Progression>) -> Self {
        let mut regions = regions.into_iter();
        let mut runs = RunBuilder::default();
        while let Some(region) = regions.next() {
            if !region.ascends_from(runs.last) {
                let rest = std::iter::once(region)
                    .chain(regions)
                    .flat_map(Progression::words);
                return Self::sorted(runs.finish().entries().chain(rest));
            }
            runs.push_progression(
                region.start.as_u64(),
                region.stride,
                region.len,
                region.first,
                region.step,
            );
        }
        runs.finish()
    }

    /// The image of `words` in any order, through a stable sort.
    fn sorted(words: impl Iterator<Item = (Addr, u64)>) -> Self {
        let mut words: Vec<(u64, u64)> = words.map(|(a, v)| (a.word().as_u64(), v)).collect();
        // Stable, so a word's entries keep their input order and the last wins.
        words.sort_by_key(|&(addr, _)| addr);
        let mut runs = RunBuilder::default();
        let mut words = words.into_iter().peekable();
        while let Some((addr, value)) = words.next() {
            if !words.peek().is_some_and(|&(next, _)| next == addr) {
                runs.push_progression(addr, 8, 1, value, 0);
            }
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
            .then(|| run.value(&self.values, k))
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
                out[((addr - first) >> 3) as usize] = run.value(&self.values, k);
                k += 1;
            }
        }
    }

    /// Words the image holds.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|run| run.len as usize).sum()
    }

    /// Whether the image holds no word.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The bytes the image owns on the heap: 8 per listed word, 16 per
    /// progression, plus 20 per run.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.starts)
            + std::mem::size_of_val(&*self.runs)
            + std::mem::size_of_val(&*self.values)
    }

    /// Every word and its value, in address order.
    fn entries(&self) -> impl Iterator<Item = (Addr, u64)> + '_ {
        let values = &self.values;
        self.starts
            .iter()
            .zip(self.runs.iter())
            .flat_map(move |(&start, run)| {
                (0..u64::from(run.len))
                    .map(move |k| (Addr::new(start + (k << run.shift)), run.value(values, k)))
            })
    }
}

/// Words in a row whose values step evenly before [`RunBuilder`] stores
/// them as a progression. Splitting one off a listed run can add two runs
/// (its own and one for the listed words after it, 40 B) and saves 8 B a
/// word less the 16 B it keeps: eight words save 48 B, so an image never
/// costs more than its words listed would, 8 n + 20 r bytes for n words in
/// r runs. Seven would only break even, six can cost more.
const PROGRESSION_MIN: u32 = 8;

/// Cuts a stream of word addresses, strictly ascending, into maximal runs.
#[derive(Default)]
struct RunBuilder {
    starts: Vec<u64>,
    runs: Vec<Run>,
    values: Vec<u64>,
    /// The last word pushed.
    last: Option<u64>,
    /// When the open run is listed: how many of its last words step evenly
    /// in value (1 for its first word).
    streak: u32,
}

impl RunBuilder {
    /// Appends `len` words `stride` bytes apart from `start` (word-aligned,
    /// strictly ascending without wrapping, above the last word pushed),
    /// word `k` holding `first + k·step`: the runs pushing them one at a
    /// time would make. It pushes single words only until the open run is
    /// a progression that the remaining words extend, then adds them in one
    /// step, so a power-of-two-strided region whose values step evenly
    /// costs a handful of pushes however long it is.
    fn push_progression(&mut self, start: u64, stride: u64, len: u64, first: u64, step: u64) {
        for k in 0..len {
            let addr = start + k * stride;
            let value = first.wrapping_add(k.wrapping_mul(step));
            if let (Some(last), Some(run)) = (self.last, self.runs.last_mut()) {
                if run.progression
                    && stride == 1 << run.shift
                    && addr - last == stride
                    && step == self.values[run.first as usize + 1]
                    && value == run.value(&self.values, u64::from(run.len))
                {
                    let rest = len - k;
                    assert!(
                        u64::from(run.len) + rest <= u64::from(u32::MAX),
                        "a run holds at most u32::MAX words"
                    );
                    run.len += rest as u32;
                    self.last = Some(start + (len - 1) * stride);
                    return;
                }
            }
            self.push(addr, value);
        }
    }

    /// Appends word `addr` (word-aligned, above the last one). It extends
    /// the open run when it is one stride on, or sets a lone word's stride
    /// when the gap is a power of two, and, if the open run is a
    /// progression, when its value is the next step; otherwise it opens a
    /// listed run. A listed run whose last `PROGRESSION_MIN` words step
    /// evenly hands them to a progression of their own.
    fn push(&mut self, addr: u64, value: u64) {
        let gap = self.last.map(|last| addr - last);
        self.last = Some(addr);
        match (gap, self.runs.last_mut()) {
            (Some(gap), Some(run))
                if run.progression
                    && gap == 1 << run.shift
                    && value == run.value(&self.values, u64::from(run.len)) =>
            {
                assert!(run.len < u32::MAX, "a run holds at most u32::MAX words");
                run.len += 1;
            }
            (Some(gap), Some(run))
                if !run.progression
                    && (gap == 1 << run.shift || (run.len == 1 && gap.is_power_of_two())) =>
            {
                run.shift = gap.trailing_zeros() as u8;
                run.len += 1;
                let n = self.values.len();
                let prev = self.values[n - 1];
                self.streak = if self.streak >= 2
                    && value.wrapping_sub(prev) == prev.wrapping_sub(self.values[n - 2])
                {
                    self.streak + 1
                } else {
                    2
                };
                self.list(value);
                if self.streak == PROGRESSION_MIN {
                    // The streak's first value stays; the step replaces the
                    // rest.
                    let at = self.values.len() - PROGRESSION_MIN as usize;
                    let step = value.wrapping_sub(prev);
                    self.values.truncate(at + 1);
                    self.values.push(step);
                    let run = self.runs.last_mut().expect("an open run");
                    if run.len == PROGRESSION_MIN {
                        run.progression = true;
                    } else {
                        run.len -= PROGRESSION_MIN;
                        let shift = run.shift;
                        self.starts
                            .push(addr - (u64::from(PROGRESSION_MIN - 1) << shift));
                        self.runs.push(Run {
                            first: at as u32,
                            len: PROGRESSION_MIN,
                            shift,
                            progression: true,
                        });
                    }
                }
            }
            _ => {
                self.starts.push(addr);
                self.runs.push(Run {
                    first: self.values.len() as u32,
                    len: 1,
                    shift: 3,
                    progression: false,
                });
                self.streak = 1;
                self.list(value);
            }
        }
    }

    /// Appends a listed value.
    fn list(&mut self, value: u64) {
        assert!(
            self.values.len() < u32::MAX as usize,
            "a base image lists at most u32::MAX values"
        );
        self.values.push(value);
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

    /// The two tests above with progressions: runs of 8 to 20 words whose
    /// values step down by one from 3, so wrap past `u64::MAX`, at the top
    /// and at the bottom of the address space.
    #[test]
    fn progressions_at_the_ends_of_the_address_space_index_without_wrapping() {
        let top = !7u64;
        let down = |k: u64| 3u64.wrapping_sub(k);
        for shift in [3u32, 4, 6, 9] {
            let stride = 1u64 << shift;
            for len in [8u64, 9, 20] {
                let words: Vec<(u64, u64)> = (0..len)
                    .map(|k| (top - (len - 1 - k) * stride, down(k)))
                    .collect();
                let run = image(&words);
                let ctx = format!("stride {stride}, {len} words");
                assert_eq!(run.heap_bytes(), 16 + 20, "{ctx}: one progression");
                for &(addr, value) in &words {
                    assert_eq!(run.get(Addr::new(addr)), Some(value), "{ctx}");
                }
                assert_eq!(run.get(Addr::new(top.wrapping_add(stride))), None);
                assert_eq!(run.get(Addr::new(0)), None);
                let mut line = [7; WORDS_PER_LINE];
                run.read_line(0, &mut line);
                assert_eq!(line, [7; WORDS_PER_LINE], "{ctx}");
                run.read_line(top / LINE_BYTES, &mut line);
                assert_eq!(line[7], down(len - 1), "{ctx}");
            }
        }

        let mut words: Vec<(u64, u64)> = (0..8).map(|k| (8 * k, down(k))).collect();
        words.push((top, 3));
        let wide = image(&words);
        assert_eq!(wide.heap_bytes(), 16 + 8 + 2 * 20);
        assert_eq!(wide.get(Addr::new(56)), Some(u64::MAX - 3));
        assert_eq!(wide.get(Addr::new(64)), None);
        assert_eq!(wide.get(Addr::new(top)), Some(3));
        let mut line = [7; WORDS_PER_LINE];
        wide.read_line(0, &mut line);
        assert_eq!(line, std::array::from_fn(|i| down(i as u64)));
    }

    /// A progression never takes a repeated word in place: the repeat goes
    /// through the sort, and the later value wins.
    #[test]
    fn a_word_repeated_after_a_progression_takes_its_later_value() {
        let at = |k: u64| 0x1000 + 64 * k;
        for len in [8u64, 9, 12] {
            let stepping = |k: u64| (at(k), 100 + 5 * k);
            let mut words: Vec<(u64, u64)> = (0..len).map(stepping).collect();
            // The progression's last word again, then more of the same step.
            words.push((at(len - 1), 7));
            words.extend((len..len + 10).map(stepping));
            let base = image(&words);
            let mut expect: Vec<(u64, u64)> = (0..len + 10).map(stepping).collect();
            expect[len as usize - 1].1 = 7;
            let rebuilt: Vec<(u64, u64)> = base.entries().map(|(a, v)| (a.as_u64(), v)).collect();
            assert_eq!(rebuilt, expect, "{len} words before the repeat");
            let mut line = [0; WORDS_PER_LINE];
            for &(addr, value) in &expect {
                assert_eq!(base.get(Addr::new(addr)), Some(value), "{addr:#x}");
                base.read_line(addr / LINE_BYTES, &mut line);
                assert_eq!(line[0], value, "line of {addr:#x}");
            }
            assert_eq!(base, image(&expect));
        }
    }

    /// The image of `words` (word-aligned, strictly ascending) pushed one
    /// word at a time.
    fn word_built(words: impl IntoIterator<Item = (Addr, u64)>) -> BaseImage {
        let mut runs = RunBuilder::default();
        for (addr, value) in words {
            runs.push(addr.as_u64(), value);
        }
        runs.finish()
    }

    /// Seeded: random regions — lone words, zeros, pointer rings, steps
    /// that wrap past `u64::MAX` or are random, strides of 8–4096 bytes
    /// (powers of two or not), lengths below `PROGRESSION_MIN` and up to a
    /// few thousand words, regions that continue the one before so the two
    /// merge, empty regions, and a few that overlap the one before and so
    /// take the sort — freeze equal to their words, under `==` and in
    /// `heap_bytes`.
    #[test]
    fn regions_freeze_equal_to_their_words() {
        let mut rng = reunion_kernel::SimRng::seed_from(0x1A_6E55);
        for case in 0..400 {
            let mut regions: Vec<Progression> = Vec::new();
            let mut next = 0x1000 + 8 * rng.below(1 << 20);
            let mut ascending = true;
            for _ in 0..1 + rng.below(8) {
                let prev = regions.last().copied().filter(|p| p.len > 0);
                let region = match prev {
                    Some(prev) if rng.chance(0.25) => Progression {
                        start: prev.start.offset(prev.len * prev.stride),
                        len: 1 + rng.below(3 * u64::from(PROGRESSION_MIN)),
                        first: prev.first.wrapping_add(prev.len.wrapping_mul(prev.step)),
                        ..prev
                    },
                    _ => {
                        let stride = if rng.chance(0.5) {
                            8 << rng.below(10)
                        } else {
                            8 * (1 + rng.below(512))
                        };
                        let len = match rng.below(6) {
                            0 => 1,
                            1 => rng.below(u64::from(PROGRESSION_MIN)),
                            2 => 1_000 + rng.below(3_000),
                            _ => 2 + rng.below(40),
                        };
                        let (first, step) = match rng.below(5) {
                            0 => (0, 0),
                            1 => (next + stride, stride),
                            2 => (rng.below(4), (1 + rng.below(1_000)).wrapping_neg()),
                            3 => (rng.next_u64(), 0),
                            _ => (rng.next_u64(), rng.next_u64()),
                        };
                        let start = if rng.chance(0.05) {
                            ascending = false;
                            next.saturating_sub(8 * rng.below(64))
                        } else {
                            next + 8 * rng.below(64)
                        };
                        Progression {
                            start: Addr::new(start),
                            stride,
                            len,
                            first,
                            step,
                        }
                    }
                };
                next = region.start.as_u64() + region.len * region.stride;
                regions.push(region);
            }
            let words = || regions.iter().copied().flat_map(Progression::words);
            let frozen = BaseImage::from_progressions(regions.iter().copied());
            let listed = BaseImage::new(words());
            assert!(frozen == listed, "case {case}: {regions:?}");
            assert_eq!(frozen.heap_bytes(), listed.heap_bytes(), "case {case}");
            if ascending {
                assert!(frozen == word_built(words()), "case {case}: {regions:?}");
            }
        }
    }

    /// A region that extends a progression takes its length in one step,
    /// held to the same `u32::MAX` words a run the word path holds.
    #[test]
    fn a_region_extends_a_progression_in_one_step() {
        let ring = |len| Progression {
            start: Addr::new(0x1000),
            stride: 64,
            len,
            first: 0x1040,
            step: 64,
        };
        let full = BaseImage::from_progressions([ring(u64::from(u32::MAX))]);
        assert_eq!(full.len(), u32::MAX as usize);
        assert_eq!(full.heap_bytes(), 16 + 20);
        let top = 0x1000 + 64 * (u64::from(u32::MAX) - 1);
        assert_eq!(full.get(Addr::new(top)), Some(top + 64));
        let over = std::panic::catch_unwind(|| {
            BaseImage::from_progressions([ring(u64::from(u32::MAX) + 1)])
        });
        let message = over.expect_err("a run of 2^32 words");
        assert_eq!(
            message.downcast_ref::<&str>(),
            Some(&"a run holds at most u32::MAX words")
        );
    }

    #[test]
    fn runs_are_maximal_and_rebuild_their_input() {
        // Two stride-64 runs broken by a gap, a lone word between them, a
        // stride-8 run whose nine values step evenly: four runs, the last a
        // progression.
        let mut words: Vec<(u64, u64)> = (0..5).map(|i| (0x1000 + i * 64, i)).collect();
        words.push((0x1800, 9));
        words.extend((0..3).map(|i| (0x2018 + i * 64, 10 + i)));
        words.extend((0..9).map(|i| (0x4000 + i * 8, 20 + i)));
        let base = image(&words);
        assert_eq!(base.len(), words.len());
        // 0x1800 joins no run: 0x1800 - 0x1100 is no power of two. Nine
        // listed words, a first value and a step, four runs.
        assert_eq!(base.heap_bytes(), 168);
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
