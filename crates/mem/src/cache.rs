//! Generic set-associative cache tag arrays.

/// A set-associative tag array with true-LRU replacement.
///
/// `CacheArray` tracks *presence and per-line state* (the type parameter
/// `S`); data values live elsewhere (the global image for coherent readers,
/// the mute overlay for mute caches). Lines are addressed by their global
/// line index (`address / 64`).
///
/// Storage is proportional to the sets a run inserts into, not to the
/// cache's capacity: a per-set slot table (4 bytes a set) indexes one
/// growing arena that holds `assoc` ways for each *materialised* set, in
/// first-touch order. A full-profile sample of the Table 1 machine inserts
/// into 8–65 % of its 32 768 L2 sets (em3d 2 594–2 738, db2_dss_q2
/// 20 357–21 141, Reunion and non-redundant), and sets packed by first
/// touch fault in only the pages they fill, where a dense array spreads the
/// same sets over nearly all of its 10.5 MB. Replacement, LRU stamps and every returned value
/// are those of a dense array.
///
/// # Examples
///
/// ```
/// use reunion_mem::CacheArray;
///
/// // 4 lines, 2-way: two sets.
/// let mut cache: CacheArray<u8> = CacheArray::new(4, 2);
/// assert!(cache.insert(0, 1).is_none());
/// assert!(cache.insert(2, 2).is_none()); // same set as line 0
/// let evicted = cache.insert(4, 3);      // set 0 full -> evict LRU (line 0)
/// assert_eq!(evicted, Some((0, 1)));
/// assert_eq!(cache.materialised_sets(), 1); // set 1 was never inserted into
/// ```
#[derive(Clone, Debug)]
pub struct CacheArray<S> {
    /// Per set: where in `ways` its `assoc` ways start, or [`UNTOUCHED`]
    /// while nothing has ever been inserted into it.
    slots: Vec<u32>,
    /// `assoc` ways per materialised set, sets in first-touch order.
    ways: Vec<Option<Way<S>>>,
    assoc: usize,
    tick: u64,
}

/// Slot of a set that has never been inserted into.
const UNTOUCHED: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Way<S> {
    line: u64,
    state: S,
    last_use: u64,
}

impl<S> CacheArray<S> {
    /// Creates an array holding `lines` lines with `assoc` ways per set.
    /// Costs one slot per set; no way is allocated until the first
    /// [`insert`](Self::insert).
    ///
    /// # Panics
    ///
    /// Panics if `lines` is not a positive multiple of `assoc` below
    /// `u32::MAX`, or if the resulting set count is not a power of two.
    pub fn new(lines: usize, assoc: usize) -> Self {
        assert!(
            assoc > 0 && lines > 0 && lines % assoc == 0,
            "bad cache shape"
        );
        let sets = lines / assoc;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(lines < u32::MAX as usize, "way indices must fit a u32 slot");
        CacheArray {
            slots: vec![UNTOUCHED; sets],
            ways: Vec::new(),
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
        self.ways.len() / self.assoc
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.slots.len() - 1)
    }

    /// The ways of the set `line` maps to; empty while the set is untouched.
    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        match self.slots[self.set_of(line)] {
            UNTOUCHED => 0..0,
            start => start as usize..start as usize + self.assoc,
        }
    }

    /// Like [`set_range`](Self::set_range), but appends `assoc` empty ways
    /// to the arena for a set seen for the first time.
    fn materialise(&mut self, line: u64) -> std::ops::Range<usize> {
        let set = self.set_of(line);
        if self.slots[set] == UNTOUCHED {
            // Below `lines`, which `new` checked against `u32::MAX`.
            self.slots[set] = self.ways.len() as u32;
            let len = self.ways.len() + self.assoc;
            self.ways.resize_with(len, || None);
        }
        self.set_range(line)
    }

    /// Looks up a line, updating LRU on hit. Returns the line state.
    pub fn lookup(&mut self, line: u64) -> Option<&mut S> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(line);
        self.ways[range]
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
        let range = self.set_range(line);
        self.ways[range]
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
        let tick = self.tick;
        let range = self.materialise(line);

        // Already present: update in place.
        if let Some(way) = self.ways[range.clone()]
            .iter_mut()
            .flatten()
            .find(|w| w.line == line)
        {
            way.state = state;
            way.last_use = tick;
            return None;
        }

        // Free way?
        if let Some(slot) = self.ways[range.clone()].iter_mut().find(|w| w.is_none()) {
            *slot = Some(Way {
                line,
                state,
                last_use: tick,
            });
            return None;
        }

        // Evict LRU.
        let victim_idx = {
            let set = &self.ways[range.clone()];
            let (rel, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.as_ref().map(|w| w.last_use).unwrap_or(0))
                .expect("nonzero associativity");
            range.start + rel
        };
        let old = self.ways[victim_idx]
            .replace(Way {
                line,
                state,
                last_use: tick,
            })
            .expect("victim way was full");
        Some((old.line, old.state))
    }

    /// Removes a line, returning its state.
    pub fn invalidate(&mut self, line: u64) -> Option<S> {
        let range = self.set_range(line);
        for slot in &mut self.ways[range] {
            if slot.as_ref().is_some_and(|w| w.line == line) {
                return slot.take().map(|w| w.state);
            }
        }
        None
    }

    /// Removes every line, returning how many were valid. The emptied sets
    /// stay materialised.
    pub fn invalidate_all(&mut self) -> usize {
        let mut n = 0;
        for slot in &mut self.ways {
            if slot.take().is_some() {
                n += 1;
            }
        }
        n
    }

    /// Iterates over `(line, state)` of all valid lines, sets in the order
    /// they were first inserted into (not in set-index order).
    pub fn iter_valid(&self) -> impl Iterator<Item = (u64, &S)> {
        self.ways.iter().flatten().map(|w| (w.line, &w.state))
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.ways.iter().flatten().count()
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
    fn invalidate_all_counts_lines() {
        let mut c: CacheArray<()> = CacheArray::new(8, 2);
        for line in 0..5 {
            c.insert(line, ());
        }
        assert_eq!(c.occupancy(), 5);
        assert_eq!(c.invalidate_all(), 5);
        assert_eq!(c.occupancy(), 0);
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
    fn misses_materialise_nothing() {
        let mut c: CacheArray<u32> = CacheArray::new(1 << 18, 8); // the Table 1 L2
        for line in (0..100_000u64).step_by(7) {
            assert!(c.lookup(line).is_none());
            assert!(c.peek(line).is_none());
            assert!(!c.contains(line));
            assert!(c.invalidate(line).is_none());
        }
        assert_eq!(c.invalidate_all(), 0);
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.iter_valid().count(), 0);
        assert_eq!(c.materialised_sets(), 0);
    }

    #[test]
    fn insert_materialises_exactly_its_set_and_invalidate_keeps_it() {
        let mut c: CacheArray<u32> = CacheArray::new(64, 4); // 16 sets
        assert!(c.insert(5, 50).is_none());
        assert_eq!(c.materialised_sets(), 1);
        assert!(c.insert(5 + 16, 51).is_none()); // same set
        assert_eq!(c.materialised_sets(), 1);

        assert_eq!(c.invalidate(5), Some(50));
        assert_eq!(c.invalidate(5 + 16), Some(51));
        assert_eq!(c.occupancy(), 0);
        assert!(c.insert(5 + 32, 52).is_none()); // re-uses the emptied set
        assert_eq!(c.materialised_sets(), 1);

        assert!(c.insert(6, 60).is_none()); // a second set, after the first
        assert_eq!(c.materialised_sets(), 2);
        assert_eq!(c.invalidate_all(), 2);
        assert!(c.insert(6, 61).is_none());
        assert_eq!(c.materialised_sets(), 2);
    }

    #[test]
    fn iter_valid_follows_first_touch_order_of_sets() {
        let mut c: CacheArray<u8> = CacheArray::new(8, 2); // 4 sets
        c.insert(3, 0);
        c.insert(0, 1);
        c.insert(7, 2); // set 3 again
        let lines: Vec<u64> = c.iter_valid().map(|(l, _)| l).collect();
        assert_eq!(lines, vec![3, 7, 0]);
    }

    #[test]
    fn iter_valid_reports_contents() {
        let mut c: CacheArray<u8> = CacheArray::new(8, 2);
        c.insert(1, 1);
        c.insert(2, 2);
        let mut lines: Vec<u64> = c.iter_valid().map(|(l, _)| l).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![1, 2]);
    }
}
