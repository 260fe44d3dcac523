//! Generic set-associative cache tag arrays, sized by the ways a run fills.

/// A set-associative tag array with true-LRU replacement.
///
/// `CacheArray` tracks *presence and per-line state* (the type parameter
/// `S`). What that state is belongs to the caller: a directory entry in the
/// L2, a MESI state in a vocal L1, the line's own words in a mute L1 (whose
/// copy nothing else may see). Lines are addressed by their global line
/// index (`address / 64`), so no line reaches `u64::MAX`, the line a free
/// way holds.
///
/// Storage is proportional to the lines a run has held, not to the cache's
/// capacity. A per-set slot table (4 bytes a set) names the chunk that
/// holds a set's ways; a set never inserted into owns nothing else. Chunks
/// come in size classes, and each class is one arena with no holes. An
/// array of at most two ways, such as an L1 or a TLB, has one class of
/// `assoc` ways: a set takes all its ways on its first insert. A wider
/// array has classes of 1, 2, 4, … ways, the last capped at `assoc`; a
/// set's first insert gives it a 1-way chunk, and an insert that finds its
/// chunk full below `assoc` ways moves the set to a chunk of the next
/// class. A full-profile sample of the Table 1 machine inserts into 8–65 %
/// of its 32 768 L2 sets and holds 1.1–4.5 valid lines in each of them (1.7
/// for db2_dss_q2, the most sets), so a set allocated at its full 8 ways
/// would stand mostly empty; grown by class, the directory takes 13–88 % of
/// those ways (25 % for db2_dss_q2). A 2-way set, by contrast, soon holds
/// two lines, and a 1-way class would only leave an emptied arena behind.
///
/// Replacement is kept by position, not by a per-way stamp: a way is its
/// line and its state, nothing more. A chunk holds its valid ways first,
/// most recently used first, and its free ways after them. [`lookup`]
/// and an [`insert`] move the line to the front, [`invalidate`] closes the
/// gap it leaves, and [`peek`] and [`contains`] leave the order alone. A
/// miss in a full set evicts the last way, which is the way a stamped
/// array would pick (the least recently looked up or inserted), so every
/// hit, victim and returned value is that of a dense stamped array.
///
/// [`lookup`]: Self::lookup
/// [`insert`]: Self::insert
/// [`invalidate`]: Self::invalidate
/// [`peek`]: Self::peek
/// [`contains`]: Self::contains
///
/// # Examples
///
/// ```
/// use reunion_mem::CacheArray;
///
/// // 8 lines, 4-way: two sets.
/// let mut cache: CacheArray<u8> = CacheArray::new(8, 4);
/// assert!(cache.insert(0, 1).is_none());
/// assert_eq!(cache.ways_allocated(), 1); // set 0 holds one line in one way
/// assert!(cache.insert(2, 2).is_none()); // same set as line 0: it grows
/// assert!(cache.insert(4, 3).is_none()); // and grows again, to 4 ways
/// assert_eq!(cache.ways_allocated(), 4);
/// assert!(cache.insert(6, 4).is_none());
/// let evicted = cache.insert(8, 5);      // set 0 full -> evict LRU (line 0)
/// assert_eq!(evicted, Some((0, 1)));
/// assert_eq!(cache.materialised_sets(), 1); // set 1 was never inserted into
/// ```
#[derive(Clone, Debug)]
pub struct CacheArray<S> {
    /// Per set: its chunk packed as `chunk << CLASS_BITS | class`, or
    /// [`UNTOUCHED`] while nothing has ever been inserted into it.
    slots: Vec<u32>,
    /// Chunk widths double from class to class up to `assoc`; see
    /// [`CacheArray::new`].
    classes: Vec<SizeClass<S>>,
    assoc: usize,
}

/// Slot of a set that has never been inserted into. A chunk index is below
/// the set count, which `CacheArray::new` keeps below `2^28`, so no packed
/// slot is all ones.
const UNTOUCHED: u32 = u32::MAX;

/// Low slot bits that hold the size class; the chunk index takes the rest.
const CLASS_BITS: u32 = 4;

/// The line of a free way.
const FREE: u64 = u64::MAX;

/// The chunks of one size class, packed with no holes: chunk `k` is
/// `ways[k * width..(k + 1) * width]` and belongs to set `owners[k]`.
#[derive(Clone, Debug)]
struct SizeClass<S> {
    width: usize,
    ways: Vec<Way<S>>,
    owners: Vec<u32>,
}

/// One way: a valid line and its state, or [`FREE`] and `S::default()`.
#[derive(Clone, Debug)]
struct Way<S> {
    line: u64,
    state: S,
}

impl<S: Default> SizeClass<S> {
    /// Appends a chunk of free ways for `set` and returns its index.
    fn push(&mut self, set: usize) -> usize {
        // `set` is below the set count, which `CacheArray::new` bounds.
        self.owners.push(set as u32);
        self.ways
            .resize_with(self.owners.len() * self.width, || Way {
                line: FREE,
                state: S::default(),
            });
        self.owners.len() - 1
    }
}

/// A slot naming chunk `chunk` of class `class`.
fn pack(chunk: usize, class: usize) -> u32 {
    (chunk as u32) << CLASS_BITS | class as u32
}

/// The `(chunk, class)` a slot other than [`UNTOUCHED`] names.
fn unpack(slot: u32) -> (usize, usize) {
    let class = slot & ((1 << CLASS_BITS) - 1);
    ((slot >> CLASS_BITS) as usize, class as usize)
}

/// The position of `line` among a set's ways; a free way matches nothing.
#[inline]
fn find<S>(ways: &[Way<S>], line: u64) -> Option<usize> {
    if line == FREE {
        return None;
    }
    ways.iter().position(|w| w.line == line)
}

impl<S: Default> CacheArray<S> {
    /// Creates an array holding `lines` lines with `assoc` ways per set.
    /// Costs one slot per set; no way is allocated until the first
    /// [`insert`](Self::insert). Chunks are `assoc` ways wide when `assoc`
    /// is at most 2, and 1, 2, 4, … ways, capped at `assoc`, otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is not a positive multiple of `assoc`, if the
    /// resulting set count is not a power of two, or if a packed slot
    /// cannot name every chunk: at most `2^28 - 1` sets and `2^15` ways.
    pub fn new(lines: usize, assoc: usize) -> Self {
        assert!(
            assoc > 0 && lines > 0 && lines % assoc == 0,
            "bad cache shape"
        );
        let sets = lines / assoc;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            sets < 1 << (32 - CLASS_BITS),
            "chunk indices must fit 28 bits of a u32 slot"
        );
        let smallest = if assoc <= 2 { assoc } else { 1 };
        let classes: Vec<SizeClass<S>> = std::iter::successors(Some(smallest), |&width| {
            (width < assoc).then(|| (2 * width).min(assoc))
        })
        .map(|width| SizeClass {
            width,
            ways: Vec::new(),
            owners: Vec::new(),
        })
        .collect();
        assert!(
            classes.len() <= 1 << CLASS_BITS,
            "size classes must fit 4 bits"
        );
        CacheArray {
            slots: vec![UNTOUCHED; sets],
            classes,
            assoc,
        }
    }

    /// Associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Number of sets that have ever been inserted into — the sets this
    /// array owns storage for. Invalidation never gives a set back.
    pub fn materialised_sets(&self) -> usize {
        self.classes.iter().map(|c| c.owners.len()).sum()
    }

    /// Number of ways this array owns storage for: each materialised set's
    /// chunk, at most `assoc` ways and at most twice the most lines the set
    /// has held at once.
    pub fn ways_allocated(&self) -> usize {
        self.classes.iter().map(|c| c.ways.len()).sum()
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.slots.len() - 1)
    }

    /// The ways of the set `line` maps to; empty while the set is untouched.
    #[inline]
    fn set_ways(&self, line: u64) -> &[Way<S>] {
        match self.slots[self.set_of(line)] {
            UNTOUCHED => &[],
            slot => {
                let (chunk, class) = unpack(slot);
                let class = &self.classes[class];
                &class.ways[chunk * class.width..][..class.width]
            }
        }
    }

    /// Mutable [`set_ways`](Self::set_ways).
    #[inline]
    fn set_ways_mut(&mut self, line: u64) -> &mut [Way<S>] {
        match self.slots[self.set_of(line)] {
            UNTOUCHED => &mut [],
            slot => {
                let (chunk, class) = unpack(slot);
                let class = &mut self.classes[class];
                &mut class.ways[chunk * class.width..][..class.width]
            }
        }
    }

    /// Moves `set`'s chunk, ways in order, to a chunk of free ways of the
    /// next size class and returns that chunk. The class it leaves stays
    /// hole-free: that class's last chunk takes the vacated place.
    fn grow(&mut self, set: usize) -> &mut [Way<S>] {
        let (chunk, class) = unpack(self.slots[set]);
        let (lower, upper) = self.classes.split_at_mut(class + 1);
        let (from, to) = (&mut lower[class], &mut upper[0]);
        let width = from.width;
        let last = from.owners.len() - 1;
        if chunk != last {
            let (head, tail) = from.ways.split_at_mut(last * width);
            head[chunk * width..(chunk + 1) * width].swap_with_slice(tail);
            self.slots[from.owners[last] as usize] = pack(chunk, class);
        }
        from.owners.swap_remove(chunk);
        let grown = to.push(set);
        to.ways[grown * to.width..][..width].swap_with_slice(&mut from.ways[last * width..]);
        from.ways.truncate(last * width);
        self.slots[set] = pack(grown, class + 1);
        &mut to.ways[grown * to.width..][..to.width]
    }

    /// Looks up a line, making it the most recently used on a hit. Returns
    /// the line state.
    pub fn lookup(&mut self, line: u64) -> Option<&mut S> {
        let ways = self.set_ways_mut(line);
        let hit = find(ways, line)?;
        ways[..=hit].rotate_right(1);
        Some(&mut ways[0].state)
    }

    /// Looks up a line without touching LRU.
    pub fn peek(&self, line: u64) -> Option<&S> {
        let ways = self.set_ways(line);
        find(ways, line).map(|hit| &ways[hit].state)
    }

    /// Whether the line is present.
    pub fn contains(&self, line: u64) -> bool {
        self.peek(line).is_some()
    }

    /// Inserts a line as the most recently used (or replaces its state if
    /// already present), returning the evicted `(line, state)` if the set
    /// was full.
    ///
    /// # Panics
    ///
    /// Panics if `line` is `u64::MAX`, the line that marks a free way.
    pub fn insert(&mut self, line: u64, state: S) -> Option<(u64, S)> {
        assert!(line != FREE, "line u64::MAX marks a free way");
        let new = Way { line, state };
        let (set, assoc) = (self.set_of(line), self.assoc);
        if self.slots[set] == UNTOUCHED {
            self.slots[set] = pack(self.classes[0].push(set), 0);
        }

        // Valid ways come first, so the first way that holds `line` or is
        // free is `line`'s own whenever the set holds it. A full chunk
        // below `assoc` ways grows to get a free way.
        let ways = self.set_ways_mut(line);
        let held = ways.len();
        let (ways, way) = match ways.iter().position(|w| w.line == line || w.line == FREE) {
            Some(way) => (ways, way),
            None if held < assoc => (self.grow(set), held),
            None => {
                // Full: the last way is the least recently used.
                let old = std::mem::replace(&mut ways[held - 1], new);
                ways.rotate_right(1);
                return Some((old.line, old.state));
            }
        };
        ways[way] = new;
        ways[..=way].rotate_right(1);
        None
    }

    /// Removes a line, returning its state. The ways after it move up one,
    /// keeping their order.
    pub fn invalidate(&mut self, line: u64) -> Option<S> {
        let ways = self.set_ways_mut(line);
        let hit = find(ways, line)?;
        ways[hit].line = FREE;
        let state = std::mem::take(&mut ways[hit].state);
        ways[hit..].rotate_left(1);
        Some(state)
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.classes
            .iter()
            .map(|c| c.ways.iter().filter(|w| w.line != FREE).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c: CacheArray<()> = CacheArray::new(8, 2);
        c.insert(5, ());
        assert!(c.contains(5));
        assert!(!c.contains(9)); // same set (4 sets), different tag
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c: CacheArray<u32> = CacheArray::new(2, 2); // one set
        c.insert(0, 10);
        c.insert(1, 11);
        // Touch line 0 so line 1 becomes LRU.
        assert_eq!(c.lookup(0), Some(&mut 10));
        let evicted = c.insert(2, 12);
        assert_eq!(evicted, Some((1, 11)));
        assert!(c.contains(0) && c.contains(2));
    }

    /// Every way of set 0 of a one-set array, in recency order, most
    /// recently used first.
    fn order(c: &CacheArray<u32>) -> Vec<u64> {
        c.set_ways(0)
            .iter()
            .map(|w| w.line)
            .take_while(|&line| line != FREE)
            .collect()
    }

    #[test]
    fn lookup_reorders_a_set_and_peek_and_contains_do_not() {
        let mut c: CacheArray<u32> = CacheArray::new(4, 4); // one set
        for line in 0..4 {
            c.insert(line, line as u32);
        }
        assert_eq!(order(&c), [3, 2, 1, 0]);
        assert_eq!(c.lookup(1), Some(&mut 1));
        assert_eq!(order(&c), [1, 3, 2, 0]);
        assert_eq!(c.peek(0), Some(&0));
        assert!(c.contains(2));
        assert_eq!(order(&c), [1, 3, 2, 0]);
        assert_eq!(c.insert(2, 20), None); // a hit moves to the front too
        assert!(c.lookup(9).is_none());
        assert_eq!(order(&c), [2, 1, 3, 0]);
        assert_eq!(c.lookup(0), Some(&mut 0));
        assert_eq!(order(&c), [0, 2, 1, 3]);
        // Line 3 was neither looked up nor inserted since the fill.
        assert_eq!(c.insert(4, 4), Some((3, 3)));
        assert_eq!(order(&c), [4, 0, 2, 1]);
    }

    #[test]
    fn invalidating_a_middle_way_keeps_the_order_and_frees_a_way() {
        let mut c: CacheArray<u32> = CacheArray::new(4, 4); // one set
        for line in 0..4 {
            c.insert(line, line as u32);
        }
        assert_eq!(c.invalidate(2), Some(2));
        assert_eq!(order(&c), [3, 1, 0]);
        assert_eq!(c.ways_allocated(), 4);
        assert_eq!(c.insert(5, 5), None); // fills the freed way
        assert_eq!(order(&c), [5, 3, 1, 0]);
        assert_eq!(c.insert(6, 6), Some((0, 0)));
    }

    #[test]
    #[should_panic(expected = "free way")]
    fn inserting_the_free_line_panics() {
        let mut c: CacheArray<u32> = CacheArray::new(4, 4);
        c.insert(u64::MAX, 0);
    }

    /// A way holds only its line and its state: no stamp, no `Option` tag.
    #[test]
    fn ways_are_their_line_and_state() {
        use crate::{DirEntry, MesiState};
        use reunion_isa::WORDS_PER_LINE;
        use std::mem::size_of;
        assert_eq!(size_of::<Way<DirEntry>>(), 24); // the L2 directory
        assert_eq!(size_of::<Way<[u64; WORDS_PER_LINE]>>(), 72); // a mute L1
        assert_eq!(size_of::<Way<MesiState>>(), 16); // a vocal L1
        assert_eq!(size_of::<Way<()>>(), 8); // a TLB entry
    }

    #[test]
    fn insert_existing_updates_state_without_eviction() {
        let mut c: CacheArray<u32> = CacheArray::new(2, 2);
        c.insert(0, 1);
        c.insert(1, 2);
        assert_eq!(c.insert(0, 99), None);
        assert_eq!(c.peek(0), Some(&99));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c: CacheArray<u32> = CacheArray::new(4, 2);
        c.insert(3, 7);
        assert_eq!(c.invalidate(3), Some(7));
        assert_eq!(c.invalidate(3), None);
        assert!(!c.contains(3));
    }

    #[test]
    fn sets_are_indexed_by_low_bits() {
        let mut c: CacheArray<()> = CacheArray::new(16, 4); // 4 sets
        assert_eq!(c.assoc(), 4);
        // Lines 0, 4, 8 and 12 share set 0 and fill it; lines 1 to 3 land
        // in the other three sets and evict nothing.
        for line in [0, 4, 8, 12, 1, 2, 3] {
            assert_eq!(c.insert(line, ()), None);
        }
        assert_eq!(c.materialised_sets(), 4);
        // A fifth line whose low bits are 00 evicts set 0's oldest line.
        assert_eq!(c.insert(16, ()), Some((0, ())));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _: CacheArray<()> = CacheArray::new(12, 2); // 6 sets
    }

    #[test]
    #[should_panic(expected = "bad cache shape")]
    fn rejects_indivisible_shape() {
        let _: CacheArray<()> = CacheArray::new(10, 3);
    }

    #[test]
    #[should_panic(expected = "u32 slot")]
    fn rejects_a_shape_the_slot_table_cannot_index() {
        // The assert fires before the 16 GB slot table would be allocated.
        let _: CacheArray<()> = CacheArray::new(1 << 32, 1);
    }

    #[test]
    #[should_panic(expected = "28 bits")]
    fn rejects_a_chunk_index_wider_than_28_bits() {
        // 2^28 one-way sets fit a u32 line count, but their chunk indices
        // would reach the all-ones slot that means untouched. The assert
        // fires before the 1 GB slot table would be allocated.
        let _: CacheArray<()> = CacheArray::new(1 << 28, 1);
    }

    #[test]
    fn misses_materialise_nothing() {
        let mut c: CacheArray<u32> = CacheArray::new(1 << 18, 8); // the Table 1 L2
        for line in (0..100_000u64).step_by(7) {
            assert!(c.lookup(line).is_none());
            assert!(c.peek(line).is_none());
            assert!(!c.contains(line));
            assert!(c.invalidate(line).is_none());
        }
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.materialised_sets(), 0);
        assert_eq!(c.ways_allocated(), 0);
    }

    #[test]
    fn insert_materialises_exactly_its_set_and_invalidate_keeps_it() {
        let mut c: CacheArray<u32> = CacheArray::new(64, 4); // 16 sets
        assert!(c.insert(5, 50).is_none());
        assert_eq!((c.materialised_sets(), c.ways_allocated()), (1, 1));
        assert!(c.insert(5 + 16, 51).is_none()); // same set: 1 -> 2 ways
        assert_eq!((c.materialised_sets(), c.ways_allocated()), (1, 2));

        assert_eq!(c.invalidate(5), Some(50));
        assert_eq!(c.invalidate(5 + 16), Some(51));
        assert_eq!(c.occupancy(), 0);
        assert!(c.insert(5 + 32, 52).is_none()); // re-uses the emptied set
        assert_eq!((c.materialised_sets(), c.ways_allocated()), (1, 2));

        assert!(c.insert(6, 60).is_none()); // a second set, after the first
        assert_eq!((c.materialised_sets(), c.ways_allocated()), (2, 3));
        assert_eq!(c.invalidate(5 + 32), Some(52));
        assert_eq!(c.invalidate(6), Some(60));
        assert!(c.insert(6, 61).is_none());
        assert_eq!((c.materialised_sets(), c.ways_allocated()), (2, 3));
    }

    #[test]
    fn a_two_way_set_takes_both_ways_on_its_first_insert() {
        let mut c: CacheArray<u32> = CacheArray::new(8, 2); // 4 sets
        assert!(c.insert(1, 10).is_none());
        assert_eq!((c.materialised_sets(), c.ways_allocated()), (1, 2));
        assert!(c.insert(1 + 4, 11).is_none()); // fills the set: no growth
        assert_eq!((c.materialised_sets(), c.ways_allocated()), (1, 2));
        assert_eq!(c.insert(1 + 8, 12), Some((1, 10)));
        assert!(c.insert(2, 20).is_none());
        assert_eq!((c.materialised_sets(), c.ways_allocated()), (2, 4));

        let mut direct: CacheArray<u32> = CacheArray::new(4, 1);
        assert!(direct.insert(3, 30).is_none());
        assert_eq!(direct.ways_allocated(), 1);
    }

    #[test]
    fn sets_of_one_class_grow_in_turn() {
        // 4 sets of 8 ways. Sets 1 and 2 take turns adding a line, so each
        // growth leaves a hole in a class the other set still occupies.
        let mut c: CacheArray<u64> = CacheArray::new(32, 8);
        let mut held = Vec::new();
        for round in 0..8u64 {
            for set in [1, 2] {
                let line = set + 4 * round;
                assert!(c.insert(line, line * 10).is_none());
                held.push(line);
                for &l in &held {
                    assert_eq!(c.peek(l), Some(&(l * 10)), "line {l} after {line}");
                }
            }
            // Both sets sit in the class of `round + 1` lines.
            let width = (round + 1).next_power_of_two() as usize;
            assert_eq!(c.ways_allocated(), 2 * width, "round {round}");
        }
        assert_eq!(c.occupancy(), 16);

        // Filled to capacity, the array holds exactly the dense array's ways.
        for line in 0..32 {
            c.insert(line, line * 10);
        }
        assert_eq!((c.materialised_sets(), c.ways_allocated()), (4, 32));
        assert!((0..32).all(|l| c.peek(l) == Some(&(l * 10))));
    }
}
