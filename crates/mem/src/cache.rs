//! Generic set-associative cache tag arrays, sized by the ways a run fills.

/// A set-associative tag array with true-LRU replacement.
///
/// `CacheArray` tracks *presence and per-line state* (the type parameter
/// `S`). What that state is belongs to the caller: a directory entry in the
/// L2, a MESI state in a vocal L1, the line's own words in a mute L1 (whose
/// copy nothing else may see). Lines are addressed by their global line
/// index (`address / 64`).
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
/// Replacement, LRU stamps and every returned value are those of a dense
/// array: only a way's position inside its set differs, and stamps are
/// unique, so the victim (the smallest stamp) does not depend on it.
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
    tick: u64,
}

/// Slot of a set that has never been inserted into. A chunk index is below
/// the set count, which `CacheArray::new` keeps below `2^28`, so no packed
/// slot is all ones.
const UNTOUCHED: u32 = u32::MAX;

/// Low slot bits that hold the size class; the chunk index takes the rest.
const CLASS_BITS: u32 = 4;

/// The chunks of one size class, packed with no holes: chunk `k` is
/// `ways[k * width..(k + 1) * width]` and belongs to set `owners[k]`.
#[derive(Clone, Debug)]
struct SizeClass<S> {
    width: usize,
    ways: Vec<Option<Way<S>>>,
    owners: Vec<u32>,
}

#[derive(Clone, Debug)]
struct Way<S> {
    line: u64,
    state: S,
    last_use: u64,
}

impl<S> SizeClass<S> {
    /// Appends an empty chunk for `set` and returns its index.
    fn push(&mut self, set: usize) -> usize {
        // `set` is below the set count, which `CacheArray::new` bounds.
        self.owners.push(set as u32);
        self.ways
            .resize_with(self.owners.len() * self.width, || None);
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

impl<S> CacheArray<S> {
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
            tick: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.slots.len()
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
    fn set_ways(&self, line: u64) -> &[Option<Way<S>>] {
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
    fn set_ways_mut(&mut self, line: u64) -> &mut [Option<Way<S>>] {
        match self.slots[self.set_of(line)] {
            UNTOUCHED => &mut [],
            slot => {
                let (chunk, class) = unpack(slot);
                let class = &mut self.classes[class];
                &mut class.ways[chunk * class.width..][..class.width]
            }
        }
    }

    /// Moves `set`'s chunk, ways in order, to an empty chunk of the next
    /// size class and returns the first way past them, which is free. The
    /// class it leaves stays hole-free: that class's last chunk takes the
    /// vacated place.
    fn grow(&mut self, set: usize) -> &mut Option<Way<S>> {
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
        &mut to.ways[grown * to.width + width]
    }

    /// Looks up a line, updating LRU on hit. Returns the line state.
    pub fn lookup(&mut self, line: u64) -> Option<&mut S> {
        self.tick += 1;
        let tick = self.tick;
        self.set_ways_mut(line)
            .iter_mut()
            .flatten()
            .find(|w| w.line == line)
            .map(|w| {
                w.last_use = tick;
                &mut w.state
            })
    }

    /// Looks up a line without touching LRU.
    pub fn peek(&self, line: u64) -> Option<&S> {
        self.set_ways(line)
            .iter()
            .flatten()
            .find(|w| w.line == line)
            .map(|w| &w.state)
    }

    /// Whether the line is present.
    pub fn contains(&self, line: u64) -> bool {
        self.peek(line).is_some()
    }

    /// Inserts a line (or replaces its state if already present), returning
    /// the evicted `(line, state)` if the set was full.
    pub fn insert(&mut self, line: u64, state: S) -> Option<(u64, S)> {
        self.tick += 1;
        let new = Way {
            line,
            state,
            last_use: self.tick,
        };
        let (set, assoc) = (self.set_of(line), self.assoc);
        if self.slots[set] == UNTOUCHED {
            self.slots[set] = pack(self.classes[0].push(set), 0);
        }

        // Already present: update in place.
        let ways = self.set_ways_mut(line);
        if let Some(way) = ways.iter_mut().flatten().find(|w| w.line == line) {
            *way = new;
            return None;
        }

        // Free way? A full chunk below `assoc` ways grows to get one.
        if let Some(free) = ways.iter_mut().find(|w| w.is_none()) {
            *free = Some(new);
            return None;
        }
        if ways.len() < assoc {
            *self.grow(set) = Some(new);
            return None;
        }

        // Evict LRU: all `assoc` ways are valid and no two share a stamp.
        let victim = ways
            .iter_mut()
            .min_by_key(|w| w.as_ref().map(|w| w.last_use).unwrap_or(0))
            .expect("nonzero associativity");
        let old = victim.replace(new).expect("victim way was full");
        Some((old.line, old.state))
    }

    /// Removes a line, returning its state.
    pub fn invalidate(&mut self, line: u64) -> Option<S> {
        for slot in self.set_ways_mut(line) {
            if slot.as_ref().is_some_and(|w| w.line == line) {
                return slot.take().map(|w| w.state);
            }
        }
        None
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.classes
            .iter()
            .map(|c| c.ways.iter().flatten().count())
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
        let c: CacheArray<()> = CacheArray::new(16, 4); // 4 sets
        assert_eq!(c.sets(), 4);
        assert_eq!(c.assoc(), 4);
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
