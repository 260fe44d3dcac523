//! An indexed event horizon: a tournament tree over per-component bounds.

use crate::Cycle;

/// Sentinel for "silent" slots; a real bound of `u64::MAX` cycles is
/// unreachable in any practical simulation, so the tree treats it as silent.
const SILENT: u64 = u64::MAX;

/// A tournament (min) tree over a fixed set of per-component activity
/// bounds — the indexed counterpart of folding [`EventHorizon`] candidates
/// linearly.
///
/// A time-skipping engine with `P` components pays `O(P)` per step to
/// recompute the minimum bound with a linear fold, even when only one
/// component changed. `HorizonTree` keeps one slot per component and a
/// binary tournament above them, so:
///
/// * [`set`](Self::set) — updating one component's bound — is `O(log P)`
///   (and exits early on the first unchanged ancestor),
/// * [`min`](Self::min) — the earliest bound over all components — is
///   `O(1)`,
/// * [`ready_slots`](Self::ready_slots) — every component whose bound has
///   arrived — is `O(k log P)` for `k` ready slots, pruning whole subtrees
///   whose minimum lies in the future.
///
/// The simulator's skip engine folds its bounds with [`EventHorizon`]
/// instead; this type is kept only because the benchmark's layer probes
/// (`benchmark/`) time it.
///
/// Slots follow the same two rules as [`EventHorizon`] candidates: a bound
/// is a conservative *lower* bound on the component's next state change,
/// and `None` means "never, absent external input".
///
/// # Examples
///
/// ```
/// use reunion_kernel::{Cycle, HorizonTree};
///
/// let mut tree = HorizonTree::new(4);
/// tree.set(0, Some(Cycle::new(40)));
/// tree.set(2, Some(Cycle::new(25)));
/// tree.set(3, None); // permanently idle
/// assert_eq!(tree.min(), Some(Cycle::new(25)));
///
/// let mut ready = Vec::new();
/// tree.ready_slots(Cycle::new(30), &mut ready);
/// assert_eq!(ready, vec![2]);
/// ```
///
/// [`EventHorizon`]: crate::EventHorizon
#[derive(Clone, Debug)]
pub struct HorizonTree {
    /// Flat 1-indexed binary min-tree; the leaf for slot `i` lives at
    /// `cap + i` and internal node `n` holds `min(nodes[2n], nodes[2n+1])`.
    nodes: Vec<u64>,
    /// Leaf capacity (number of slots rounded up to a power of two).
    cap: usize,
    /// Number of addressable component slots.
    slots: usize,
}

impl HorizonTree {
    /// Creates a tree of `slots` components, all initially silent.
    pub fn new(slots: usize) -> Self {
        let cap = slots.max(1).next_power_of_two();
        HorizonTree {
            nodes: vec![SILENT; 2 * cap],
            cap,
            slots,
        }
    }

    /// Number of component slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Sets slot `slot`'s activity bound (`None` = silent), repairing the
    /// tournament path above it. `O(log P)`, exiting at the first ancestor
    /// whose minimum is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.slots()`.
    pub fn set(&mut self, slot: usize, bound: Option<Cycle>) {
        assert!(slot < self.slots, "slot {slot} out of {}", self.slots);
        let value = bound.map_or(SILENT, |c| c.as_u64());
        let mut node = self.cap + slot;
        if self.nodes[node] == value {
            return;
        }
        self.nodes[node] = value;
        while node > 1 {
            node /= 2;
            let min = self.nodes[2 * node].min(self.nodes[2 * node + 1]);
            if self.nodes[node] == min {
                break;
            }
            self.nodes[node] = min;
        }
    }

    /// The bound currently stored for `slot`.
    pub fn get(&self, slot: usize) -> Option<Cycle> {
        match self.nodes[self.cap + slot] {
            SILENT => None,
            v => Some(Cycle::new(v)),
        }
    }

    /// The earliest bound over all slots, or `None` when every slot is
    /// silent. `O(1)`: the tournament root.
    pub fn min(&self) -> Option<Cycle> {
        match self.nodes[1] {
            SILENT => None,
            v => Some(Cycle::new(v)),
        }
    }

    /// Whether every slot is silent.
    pub fn is_silent(&self) -> bool {
        self.nodes[1] == SILENT
    }

    /// Appends (in ascending slot order) every slot whose bound is
    /// `<= now` onto `out`, pruning subtrees whose minimum lies beyond
    /// `now`.
    pub fn ready_slots(&self, now: Cycle, out: &mut Vec<usize>) {
        self.walk(1, now.as_u64(), out);
    }

    fn walk(&self, node: usize, bound: u64, out: &mut Vec<usize>) {
        if self.nodes[node] > bound {
            return;
        }
        if node >= self.cap {
            let slot = node - self.cap;
            // Padding leaves (slot >= self.slots) are always SILENT and
            // never pass the bound check above.
            out.push(slot);
            return;
        }
        // Left child first: ready slots come out in ascending index order,
        // which is what keeps downstream arbitration deterministic.
        self.walk(2 * node, bound, out);
        self.walk(2 * node + 1, bound, out);
    }

    /// Silences every slot (between runs, before a full bound rebuild).
    pub fn clear(&mut self) {
        self.nodes.fill(SILENT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    fn c(v: u64) -> Cycle {
        Cycle::new(v)
    }

    #[test]
    fn empty_tree_is_silent() {
        let tree = HorizonTree::new(0);
        assert!(tree.is_silent());
        assert_eq!(tree.min(), None);
        let mut out = Vec::new();
        tree.ready_slots(c(1_000), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn min_tracks_updates_and_silence() {
        let mut tree = HorizonTree::new(5);
        assert_eq!(tree.min(), None);
        tree.set(3, Some(c(30)));
        tree.set(1, Some(c(10)));
        tree.set(4, Some(c(20)));
        assert_eq!(tree.min(), Some(c(10)));
        tree.set(1, Some(c(50)));
        assert_eq!(tree.min(), Some(c(20)));
        tree.set(4, None);
        assert_eq!(tree.min(), Some(c(30)));
        tree.set(3, None);
        assert_eq!(tree.min(), Some(c(50)));
        tree.set(1, None);
        assert!(tree.is_silent());
    }

    #[test]
    fn ready_slots_come_out_in_ascending_order() {
        let mut tree = HorizonTree::new(7);
        for (slot, at) in [(6, 5), (0, 5), (3, 9), (2, 5), (5, 4)] {
            tree.set(slot, Some(c(at)));
        }
        let mut out = Vec::new();
        tree.ready_slots(c(5), &mut out);
        assert_eq!(out, vec![0, 2, 5, 6]);
        out.clear();
        tree.ready_slots(c(3), &mut out);
        assert!(out.is_empty());
        out.clear();
        tree.ready_slots(c(100), &mut out);
        assert_eq!(out, vec![0, 2, 3, 5, 6]);
    }

    #[test]
    fn clear_silences_everything() {
        let mut tree = HorizonTree::new(3);
        tree.set(0, Some(c(1)));
        tree.set(2, Some(c(2)));
        tree.clear();
        assert!(tree.is_silent());
        assert_eq!(tree.get(0), None);
        // The tree stays usable after a clear.
        tree.set(1, Some(c(7)));
        assert_eq!(tree.min(), Some(c(7)));
    }

    /// Randomized differential test against a plain linear fold.
    #[test]
    fn matches_linear_fold_under_random_updates() {
        let mut rng = SimRng::seed_from(0x7125_EED5);
        for &slots in &[1usize, 2, 3, 8, 13, 16, 33] {
            let mut tree = HorizonTree::new(slots);
            let mut model: Vec<Option<u64>> = vec![None; slots];
            for _ in 0..500 {
                let slot = (rng.next_u64() % slots as u64) as usize;
                let bound = if rng.chance(0.2) {
                    None
                } else {
                    Some(rng.next_u64() % 1_000)
                };
                tree.set(slot, bound.map(Cycle::new));
                model[slot] = bound;

                let expect_min = model.iter().flatten().min().copied();
                assert_eq!(tree.min(), expect_min.map(Cycle::new));
                assert_eq!(tree.is_silent(), expect_min.is_none());

                let probe = rng.next_u64() % 1_200;
                let mut got = Vec::new();
                tree.ready_slots(Cycle::new(probe), &mut got);
                let expect: Vec<usize> = model
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.is_some_and(|v| v <= probe))
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(got, expect, "slots={slots} probe={probe}");
            }
        }
    }
}
