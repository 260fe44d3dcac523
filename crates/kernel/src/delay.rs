//! A cycle-indexed delivery queue.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::Cycle;

/// A queue that delivers items at (or after) a chosen simulation cycle, in
/// cycle order and FIFO among equal cycles: one binary heap keyed by
/// `(delivery cycle, push order)`. An item pushed for a cycle already popped
/// past still comes out first. Nothing in the simulator uses this type; it
/// is kept only because the benchmark's layer probes (`benchmark/`) time it.
///
/// ```
/// use reunion_kernel::{Cycle, DelayQueue};
///
/// let mut q = DelayQueue::new();
/// q.push_at(Cycle::new(5), "fingerprint");
/// assert!(q.pop_ready(Cycle::new(4)).is_none());
/// assert_eq!(q.pop_ready(Cycle::new(5)), Some("fingerprint"));
/// ```
pub struct DelayQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

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
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

impl<T> DelayQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        DelayQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `item` for delivery at cycle `when`.
    pub fn push_at(&mut self, when: Cycle, item: T) {
        let key = Reverse((when.as_u64(), self.seq));
        self.seq += 1;
        self.heap.push(Entry { key, item });
    }

    /// Pops the next item whose delivery time is `<= now`, if any.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        let next = self.heap.peek_mut()?;
        (next.key.0 .0 <= now.as_u64()).then(|| PeekMut::pop(next).item)
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

    fn queue(pushes: &[(u64, i32)]) -> DelayQueue<i32> {
        let mut q = DelayQueue::new();
        for &(when, item) in pushes {
            q.push_at(Cycle::new(when), item);
        }
        q
    }

    fn drain(q: &mut DelayQueue<i32>, now: u64) -> Vec<i32> {
        std::iter::from_fn(|| q.pop_ready(Cycle::new(now))).collect()
    }

    #[test]
    fn delivers_in_time_order() {
        assert_eq!(drain(&mut queue(&[(10, 3), (5, 1), (7, 2)]), 10), [1, 2, 3]);
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut q = queue(&[(3, 0), (3, 1), (2, -1), (3, 2), (3, 3)]);
        assert_eq!(drain(&mut q, 3), [-1, 0, 1, 2, 3]);
    }

    #[test]
    fn not_ready_until_time() {
        let mut q = queue(&[(7, 1)]);
        assert_eq!(drain(&mut q, 6), []);
        assert_eq!(drain(&mut q, 7), [1]);
    }

    /// An item pushed for a cycle earlier than one already popped still
    /// beats everything scheduled afterwards.
    #[test]
    fn pushes_behind_the_window_still_deliver_first() {
        let mut q = queue(&[(50, 1), (100, 3)]);
        assert_eq!(drain(&mut q, 60), [1]);
        q.push_at(Cycle::new(10), 2);
        assert_eq!(drain(&mut q, 100), [2, 3]);
    }
}
