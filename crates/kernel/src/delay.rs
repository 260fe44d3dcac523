//! Cycle-indexed delivery queues.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::Cycle;

/// Width of the near-future bucket ring. One `u64` occupancy bitmask
/// covers the whole window, so "earliest pending bucket" is a single
/// rotate + count-trailing-zeros.
const NEAR_WINDOW: usize = 64;

/// A queue that delivers items at (or after) a chosen simulation cycle.
///
/// Items pushed for the same delivery cycle pop in FIFO order. No
/// simulator component uses this type: the simulator's fixed latencies are
/// completion stamps computed at the access. It is kept only because the
/// benchmark's layer probes (`benchmark/`) time it.
///
/// Internally this is a three-tier calendar queue rather than one binary
/// heap. Almost every push lands within a few cycles of the consumer's
/// clock, so those go to a 64-cycle ring of per-cycle buckets: push and
/// pop are `O(1)` (a bitmask rotate finds the earliest pending bucket),
/// and finding the earliest delivery time never touches a heap in the common
/// case. Pushes beyond the ring land in a *far* overflow heap and migrate
/// into the ring as the window advances; pushes behind the window (the
/// consumer already popped past that cycle) land in a *past* heap that
/// preserves the original non-monotone `pop_ready` semantics. Ordering is
/// globally `(delivery cycle, push order)` regardless of tier.
///
/// # Examples
///
/// ```
/// use reunion_kernel::{Cycle, DelayQueue};
///
/// let mut q = DelayQueue::new();
/// q.push_at(Cycle::new(5), "fingerprint");
/// assert!(q.pop_ready(Cycle::new(4)).is_none());
/// assert_eq!(q.pop_ready(Cycle::new(5)), Some("fingerprint"));
/// ```
#[derive(Clone, Debug)]
pub struct DelayQueue<T> {
    /// Per-cycle buckets for deliveries in `[base, base + NEAR_WINDOW)`;
    /// bucket contents are `(seq, item)` kept in descending-`seq` order so
    /// the FIFO-next entry pops from the back in `O(1)`. Allocated lazily
    /// on the first push so an untouched queue costs nothing.
    near: Vec<VecDeque<(u64, T)>>,
    /// Bitmask of non-empty `near` buckets, indexed by physical slot.
    occupied: u64,
    /// Buckets whose descending-`seq` invariant may be broken (far-tier
    /// migration interleaves sequence numbers); sorted on first pop.
    dirty: u64,
    /// Physical ring index of the bucket holding cycle `base`.
    head: usize,
    /// Delivery cycle of the ring slot at `head`.
    base: u64,
    /// Deliveries at or beyond `base + NEAR_WINDOW`.
    far: BinaryHeap<Entry<T>>,
    /// Deliveries pushed for cycles the window has already advanced past.
    past: BinaryHeap<Entry<T>>,
    seq: u64,
    len: usize,
}

#[derive(Clone, Debug)]
struct Entry<T> {
    key: Reverse<(u64, u64)>,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<T> DelayQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        DelayQueue {
            near: Vec::new(),
            occupied: 0,
            dirty: 0,
            head: 0,
            base: 0,
            far: BinaryHeap::new(),
            past: BinaryHeap::new(),
            seq: 0,
            len: 0,
        }
    }

    /// Schedules `item` for delivery at cycle `when`.
    pub fn push_at(&mut self, when: Cycle, item: T) {
        if self.near.is_empty() {
            self.near.resize_with(NEAR_WINDOW, VecDeque::new);
        }
        let seq = self.seq;
        self.seq += 1;
        let w = when.as_u64();
        if self.len == 0 {
            // Empty queue: nothing constrains the window, so re-anchor it
            // on the incoming delivery and take the fast near path.
            self.base = w;
            self.head = 0;
        }
        self.len += 1;
        if w < self.base {
            self.past.push(Entry {
                key: Reverse((w, seq)),
                item,
            });
        } else if w - self.base < NEAR_WINDOW as u64 {
            let slot = (self.head + (w - self.base) as usize) % NEAR_WINDOW;
            // Newest push has the largest seq, so the front keeps the
            // bucket in descending-seq order without marking it dirty.
            self.near[slot].push_front((seq, item));
            self.occupied |= 1 << slot;
        } else {
            self.far.push(Entry {
                key: Reverse((w, seq)),
                item,
            });
        }
    }

    /// Pops the next item whose delivery time is `<= now`, if any.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        let earliest = self.peek_time()?;
        if earliest > now {
            return None;
        }
        self.len -= 1;
        // Every past-tier delivery predates `base`, and every ring slot
        // predates the far tier, so the tiers drain strictly in that order.
        if !self.past.is_empty() {
            return self.past.pop().map(|e| e.item);
        }
        if self.occupied == 0 {
            // Ring empty: jump the window straight to the earliest far
            // delivery and pull the whole overflow prefix in.
            self.base = earliest.as_u64();
            self.head = 0;
            self.migrate_far();
        } else {
            let off = self.first_occupied_offset();
            if off > 0 {
                // Slots in (base, base + off) are empty, so sliding the
                // window forward skips no deliveries.
                self.base += off as u64;
                self.head = (self.head + off) % NEAR_WINDOW;
                self.migrate_far();
            }
        }
        let h = self.head;
        let bucket = &mut self.near[h];
        if self.dirty & (1 << h) != 0 {
            bucket
                .make_contiguous()
                .sort_unstable_by_key(|e| Reverse(e.0));
            self.dirty &= !(1 << h);
        }
        let (_seq, item) = bucket.pop_back().expect("occupied bucket has an item");
        if bucket.is_empty() {
            self.occupied &= !(1 << h);
            self.dirty &= !(1 << h);
        }
        Some(item)
    }

    /// Returns the delivery time of the earliest pending item.
    pub(crate) fn peek_time(&self) -> Option<Cycle> {
        if let Some(e) = self.past.peek() {
            return Some(Cycle::new(e.key.0 .0));
        }
        if self.occupied != 0 {
            return Some(Cycle::new(self.base + self.first_occupied_offset() as u64));
        }
        self.far.peek().map(|e| Cycle::new(e.key.0 .0))
    }

    /// Number of pending items (ready or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no items are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all pending items.
    pub fn clear(&mut self) {
        for bucket in &mut self.near {
            bucket.clear();
        }
        self.occupied = 0;
        self.dirty = 0;
        self.head = 0;
        self.base = 0;
        self.far.clear();
        self.past.clear();
        self.len = 0;
    }

    /// Logical offset (cycles past `base`) of the earliest non-empty ring
    /// bucket. Callers must ensure `occupied != 0`.
    fn first_occupied_offset(&self) -> usize {
        // Rotating by `head` puts the `base` bucket's bit at position 0.
        self.occupied
            .rotate_right(self.head as u32)
            .trailing_zeros() as usize
    }

    /// Pulls every far-tier delivery that now falls inside the ring window
    /// into its bucket, marking touched buckets for a seq re-sort.
    fn migrate_far(&mut self) {
        let horizon = self.base.saturating_add(NEAR_WINDOW as u64);
        while let Some(e) = self.far.peek() {
            let w = e.key.0 .0;
            if w >= horizon {
                break;
            }
            let e = self.far.pop().expect("peeked entry");
            let slot = (self.head + (w - self.base) as usize) % NEAR_WINDOW;
            self.near[slot].push_front((e.key.0 .1, e.item));
            self.occupied |= 1 << slot;
            self.dirty |= 1 << slot;
        }
    }
}

impl<T> Default for DelayQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn delivers_in_time_order() {
        let mut q = DelayQueue::new();
        q.push_at(Cycle::new(10), "b");
        q.push_at(Cycle::new(5), "a");
        assert_eq!(q.pop_ready(Cycle::new(10)), Some("a"));
        assert_eq!(q.pop_ready(Cycle::new(10)), Some("b"));
        assert_eq!(q.pop_ready(Cycle::new(10)), None);
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut q = DelayQueue::new();
        for i in 0..5 {
            q.push_at(Cycle::new(3), i);
        }
        for i in 0..5 {
            assert_eq!(q.pop_ready(Cycle::new(3)), Some(i));
        }
    }

    #[test]
    fn not_ready_until_time() {
        let mut q = DelayQueue::new();
        q.push_at(Cycle::new(7), ());
        assert!(q.pop_ready(Cycle::new(6)).is_none());
        assert_eq!(q.len(), 1);
        assert!(q.pop_ready(Cycle::new(7)).is_some());
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = DelayQueue::new();
        assert!(q.peek_time().is_none());
        q.push_at(Cycle::new(9), 1);
        q.push_at(Cycle::new(2), 2);
        assert_eq!(q.peek_time(), Some(Cycle::new(2)));
    }

    #[test]
    fn peek_next_ready_preserves_fifo_tie_order() {
        // Three items scheduled for the same cycle: peeking the horizon
        // (repeatedly, interleaved with pops) must not perturb the FIFO
        // order of the tie.
        let mut q = DelayQueue::new();
        for i in 0..3 {
            q.push_at(Cycle::new(4), i);
            assert_eq!(q.peek_time(), Some(Cycle::new(4)));
        }
        for expect in 0..3 {
            assert_eq!(q.peek_time(), Some(Cycle::new(4)));
            assert_eq!(q.pop_ready(Cycle::new(4)), Some(expect));
        }
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn peek_next_ready_tracks_earliest_across_mixed_times() {
        let mut q = DelayQueue::new();
        q.push_at(Cycle::new(9), "late");
        q.push_at(Cycle::new(2), "early-a");
        q.push_at(Cycle::new(2), "early-b");
        assert_eq!(q.peek_time(), Some(Cycle::new(2)));
        assert_eq!(q.pop_ready(Cycle::new(2)), Some("early-a"));
        assert_eq!(q.peek_time(), Some(Cycle::new(2)));
        assert_eq!(q.pop_ready(Cycle::new(2)), Some("early-b"));
        assert_eq!(q.peek_time(), Some(Cycle::new(9)));
    }

    #[test]
    fn clear_discards_everything() {
        let mut q = DelayQueue::new();
        q.push_at(Cycle::new(1), 1);
        q.clear();
        assert!(q.is_empty());
        // A cleared queue keeps working, including across tiers.
        q.push_at(Cycle::new(500), 2);
        q.push_at(Cycle::new(3), 3);
        assert_eq!(q.pop_ready(Cycle::new(1_000)), Some(3));
        assert_eq!(q.pop_ready(Cycle::new(1_000)), Some(2));
    }

    #[test]
    fn far_tier_migrates_in_push_order() {
        // Everything lands far beyond the 64-cycle ring, some of it on the
        // same cycle: migration back into the ring must preserve global
        // (time, push-order) delivery.
        let mut q = DelayQueue::new();
        q.push_at(Cycle::new(0), -1);
        for i in 0..4 {
            q.push_at(Cycle::new(1_000), i);
        }
        q.push_at(Cycle::new(999), 100);
        assert_eq!(q.pop_ready(Cycle::new(2_000)), Some(-1));
        assert_eq!(q.pop_ready(Cycle::new(2_000)), Some(100));
        for i in 0..4 {
            assert_eq!(q.pop_ready(Cycle::new(2_000)), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn pushes_behind_the_window_still_deliver_first() {
        let mut q = DelayQueue::new();
        q.push_at(Cycle::new(50), "future");
        q.push_at(Cycle::new(100), "later");
        assert_eq!(q.pop_ready(Cycle::new(60)), Some("future"));
        // The window has advanced past cycle 10; a late push for it must
        // still beat everything scheduled afterwards.
        q.push_at(Cycle::new(10), "stale");
        assert_eq!(q.peek_time(), Some(Cycle::new(10)));
        assert_eq!(q.pop_ready(Cycle::new(100)), Some("stale"));
        assert_eq!(q.pop_ready(Cycle::new(100)), Some("later"));
    }

    #[test]
    fn window_wraps_without_losing_or_reordering() {
        // March the window forward far enough to wrap the 64-slot ring
        // several times while items straddle the boundary.
        let mut q = DelayQueue::new();
        let mut expected = VecDeque::new();
        for i in 0u64..200 {
            q.push_at(Cycle::new(i * 3), i);
            expected.push_back(i);
        }
        for now in 0u64..=600 {
            while let Some(v) = q.pop_ready(Cycle::new(now)) {
                assert_eq!(Some(v), expected.pop_front());
            }
        }
        assert!(q.is_empty());
        assert!(expected.is_empty());
    }

    /// Randomized differential test against the original single-heap
    /// implementation's semantics: pop the globally smallest
    /// `(when, push order)` entry whenever its time has come, under
    /// non-monotone `now` probes that exercise all three tiers.
    #[test]
    fn matches_single_heap_reference() {
        let mut rng = SimRng::seed_from(0xDE1A_90E5);
        for round in 0..20 {
            let mut q = DelayQueue::new();
            let mut model: Vec<(u64, u64)> = Vec::new(); // (when, seq) -> seq is the payload
            let mut seq = 0u64;
            let mut clock = 0u64;
            for _ in 0..400 {
                if rng.chance(0.55) {
                    // Mix near, far, and (relative to a moving clock) past pushes.
                    let when = match rng.next_u64() % 4 {
                        0 => clock + rng.next_u64() % 8,
                        1 => clock + rng.next_u64() % 60,
                        2 => clock + 64 + rng.next_u64() % 500,
                        _ => (clock).saturating_sub(rng.next_u64() % 40),
                    };
                    q.push_at(Cycle::new(when), seq);
                    model.push((when, seq));
                    seq += 1;
                } else {
                    // Occasionally probe earlier than the current clock.
                    let now = if rng.chance(0.2) {
                        clock.saturating_sub(rng.next_u64() % 20)
                    } else {
                        clock + rng.next_u64() % 30
                    };
                    clock = clock.max(now);
                    let expect_peek = model.iter().min().map(|&(w, _)| w);
                    assert_eq!(q.peek_time(), expect_peek.map(Cycle::new), "round {round}");
                    let got = q.pop_ready(Cycle::new(now));
                    let expect = match model.iter().enumerate().min_by_key(|(_, &e)| e) {
                        Some((idx, &(w, s))) if w <= now => {
                            model.swap_remove(idx);
                            Some(s)
                        }
                        _ => None,
                    };
                    assert_eq!(got, expect, "round {round} now {now}");
                    assert_eq!(q.len(), model.len());
                }
            }
            // Drain fully and compare the tail order.
            let mut tail = Vec::new();
            while let Some(v) = q.pop_ready(Cycle::new(u64::MAX - 64)) {
                tail.push(v);
            }
            let mut expect_tail: Vec<(u64, u64)> = model.clone();
            expect_tail.sort_unstable();
            assert_eq!(
                tail,
                expect_tail.iter().map(|&(_, s)| s).collect::<Vec<_>>()
            );
            assert!(q.is_empty());
        }
    }
}
