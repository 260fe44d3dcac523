//! Per-component activity bounds, one slot each.

use crate::{Cycle, EventHorizon};

/// Per-component activity bounds whose minimum is their [`EventHorizon`]
/// fold; `None` is a silent slot. Nothing in the simulator uses this type
/// (the skip engine folds its bounds with [`EventHorizon`] directly); it is
/// kept only because the benchmark's layer probes (`benchmark/`) time it.
///
/// ```
/// use reunion_kernel::{Cycle, HorizonTree};
///
/// let mut tree = HorizonTree::new(4);
/// tree.set(0, Some(Cycle::new(40)));
/// tree.set(2, Some(Cycle::new(25)));
/// tree.set(3, None); // permanently idle
/// assert_eq!(tree.min(), Some(Cycle::new(25)));
/// ```
pub struct HorizonTree {
    slots: Vec<Option<Cycle>>,
}

impl HorizonTree {
    /// Creates `slots` component slots, all silent.
    pub fn new(slots: usize) -> Self {
        HorizonTree {
            slots: vec![None; slots],
        }
    }

    /// Sets slot `slot`'s activity bound (`None` = silent); panics if
    /// `slot` is not below the slot count given to `new`.
    pub fn set(&mut self, slot: usize, bound: Option<Cycle>) {
        self.slots[slot] = bound;
    }

    /// The earliest bound over all slots, or `None` when every slot is
    /// silent.
    pub fn min(&self) -> Option<Cycle> {
        let mut horizon = EventHorizon::new();
        self.slots.iter().for_each(|&bound| horizon.note_opt(bound));
        horizon.next_ready()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_is_silent() {
        assert_eq!(HorizonTree::new(0).min(), None);
        assert_eq!(HorizonTree::new(3).min(), None);
    }

    /// `min` follows every `set`, falling back to the next-earliest slot
    /// when the earliest one goes silent.
    #[test]
    fn min_tracks_updates_and_silence() {
        let mut tree = HorizonTree::new(5);
        for (slot, bound, min) in [
            (3, Some(30), Some(30)),
            (1, Some(10), Some(10)),
            (1, Some(50), Some(30)),
            (3, None, Some(50)),
            (1, None, None),
        ] {
            tree.set(slot, bound.map(Cycle::new));
            assert_eq!(tree.min(), min.map(Cycle::new));
        }
    }

    #[test]
    #[should_panic]
    fn set_past_the_last_slot_panics() {
        HorizonTree::new(2).set(2, None);
    }
}
