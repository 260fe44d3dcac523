//! Coherence state, core identities and the L2 directory entry.

use std::fmt;

/// Identifies a *logical* processor (a core in the non-redundant machine, or
/// a vocal/mute pair in redundant configurations).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u8);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Identifies a registered private L1 cache within the memory system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct L1Id(pub(crate) usize);

impl fmt::Display for L1Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l1#{}", self.0)
    }
}

/// Who a private L1 belongs to: a vocal core (coherent, architecturally
/// visible) or a mute core (never exposes updates; Definition 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Owner {
    /// The coherent half of a logical processor pair (or a non-redundant
    /// core, which is vocal by construction).
    Vocal(CoreId),
    /// The redundant half; invisible to the coherence protocol.
    Mute(CoreId),
}

impl Owner {
    /// Convenience constructor for a vocal owner.
    pub fn vocal(core: u8) -> Self {
        Owner::Vocal(CoreId(core))
    }

    /// Convenience constructor for a mute owner.
    pub fn mute(core: u8) -> Self {
        Owner::Mute(CoreId(core))
    }

    /// Whether this is a mute cache.
    pub(crate) fn is_mute(self) -> bool {
        matches!(self, Owner::Mute(_))
    }
}

/// MESI coherence state for a line in a *vocal* L1.
///
/// Mute L1 lines carry no coherence state — the protocol behaves as if mute
/// cores were absent from the system (§4.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub(crate) enum MesiState {
    /// Not present (only used transiently; invalid lines are removed).
    #[default]
    Invalid,
    /// Clean, possibly shared with other vocal L1s.
    Shared,
    /// Clean and exclusive to this L1; silently upgradable to Modified.
    Exclusive,
    /// Dirty and exclusive to this L1.
    Modified,
}

impl MesiState {
    /// Whether this state grants write permission without a bus transaction.
    pub(crate) fn can_write(self) -> bool {
        matches!(self, MesiState::Exclusive | MesiState::Modified)
    }
}

/// Directory metadata kept per L2 line: which vocal L1s hold the line, and
/// which (if any) owns it exclusively.
///
/// Sharer bits index *vocal L1 registration order*; mute caches are never
/// recorded, implementing the paper's "sharers lists never include mute
/// caches" rule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct DirEntry {
    sharers: u64,
    /// The exclusive owner's id plus one; 0 while no L1 owns the line.
    owner: u8,
}

/// `l1`'s bit in a sharer mask.
///
/// # Panics
///
/// Panics if `l1` is not below 64: a shift by 64 or more would wrap in a
/// release build and name another L1.
fn sharer_bit(l1: L1Id) -> u64 {
    assert!(l1.0 < 64, "directory supports at most 64 vocal L1s");
    1 << l1.0
}

impl DirEntry {
    /// An empty directory entry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records `l1` as a sharer.
    ///
    /// # Panics
    ///
    /// Panics if `l1` is not among the first 64 vocal L1s.
    pub(crate) fn add_sharer(&mut self, l1: L1Id) {
        self.sharers |= sharer_bit(l1);
    }

    /// Removes `l1` from the sharer set (and ownership if it was the owner).
    ///
    /// # Panics
    ///
    /// Panics if `l1` is not among the first 64 vocal L1s.
    pub(crate) fn remove_sharer(&mut self, l1: L1Id) {
        self.sharers &= !sharer_bit(l1);
        if self.owner() == Some(l1) {
            self.owner = 0;
        }
    }

    /// Whether `l1` is recorded as a sharer.
    #[cfg(test)]
    fn has_sharer(&self, l1: L1Id) -> bool {
        self.sharers & sharer_bit(l1) != 0
    }

    /// Grants exclusive ownership to `l1`, clearing all other sharers.
    ///
    /// # Panics
    ///
    /// Panics if `l1` is not among the first 64 vocal L1s.
    pub(crate) fn set_owner(&mut self, l1: L1Id) {
        self.sharers = sharer_bit(l1);
        // Below 64, so the id plus one fits a `u8`.
        self.owner = l1.0 as u8 + 1;
    }

    /// The current exclusive owner, if any.
    pub(crate) fn owner(&self) -> Option<L1Id> {
        self.owner.checked_sub(1).map(|id| L1Id(id as usize))
    }

    /// Clears exclusive ownership but keeps the (former) owner as a sharer.
    pub(crate) fn downgrade_owner(&mut self) {
        self.owner = 0;
    }

    /// Iterates over all sharers, in ascending id order.
    pub(crate) fn sharers(&self) -> impl Iterator<Item = L1Id> {
        set_bits(self.sharers)
    }

    /// Iterates over all sharers except `except`, in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `except` is not among the first 64 vocal L1s.
    pub(crate) fn sharers_except(&self, except: L1Id) -> impl Iterator<Item = L1Id> {
        set_bits(self.sharers & !sharer_bit(except))
    }

    /// Number of sharers.
    pub(crate) fn sharer_count(&self) -> u32 {
        self.sharers.count_ones()
    }
}

/// Walks the set bits of a sharer mask, lowest first — one step per sharer
/// rather than one per possible L1; this runs on every store miss and every
/// L2 eviction.
fn set_bits(mut mask: u64) -> impl Iterator<Item = L1Id> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let id = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(L1Id(id))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_classification() {
        assert!(Owner::mute(1).is_mute());
        assert!(!Owner::vocal(1).is_mute());
        assert_eq!(Owner::vocal(3), Owner::Vocal(CoreId(3)));
        assert_eq!(Owner::mute(3), Owner::Mute(CoreId(3)));
    }

    #[test]
    fn mesi_write_permission() {
        assert!(MesiState::Modified.can_write());
        assert!(MesiState::Exclusive.can_write());
        assert!(!MesiState::Shared.can_write());
        assert!(!MesiState::Invalid.can_write());
    }

    #[test]
    fn directory_sharers_round_trip() {
        let mut d = DirEntry::new();
        d.add_sharer(L1Id(0));
        d.add_sharer(L1Id(2));
        assert!(d.has_sharer(L1Id(0)));
        assert!(!d.has_sharer(L1Id(1)));
        assert_eq!(d.sharer_count(), 2);
        d.remove_sharer(L1Id(0));
        assert!(!d.has_sharer(L1Id(0)));
        assert_ne!(d.sharer_count(), 0);
        d.remove_sharer(L1Id(2));
        assert_eq!(d.sharer_count(), 0);
    }

    #[test]
    fn ownership_clears_other_sharers() {
        let mut d = DirEntry::new();
        d.add_sharer(L1Id(0));
        d.add_sharer(L1Id(1));
        d.set_owner(L1Id(1));
        assert_eq!(d.owner(), Some(L1Id(1)));
        assert!(!d.has_sharer(L1Id(0)));
        assert!(d.has_sharer(L1Id(1)));
        d.downgrade_owner();
        assert_eq!(d.owner(), None);
        assert!(d.has_sharer(L1Id(1)));
    }

    #[test]
    fn removing_owner_clears_ownership() {
        let mut d = DirEntry::new();
        d.set_owner(L1Id(4));
        d.remove_sharer(L1Id(4));
        assert_eq!(d.owner(), None);
        assert_eq!(d.sharer_count(), 0);
    }

    #[test]
    fn owner_round_trips_for_the_first_and_last_id() {
        for l1 in [L1Id(0), L1Id(63)] {
            let mut d = DirEntry::new();
            d.add_sharer(L1Id(1));
            d.set_owner(l1);
            assert_eq!(d.owner(), Some(l1));
            assert_eq!(d.sharers().collect::<Vec<_>>(), vec![l1]);
            d.downgrade_owner();
            assert_eq!(d.owner(), None);
            assert!(d.has_sharer(l1));
            d.set_owner(l1);
            d.remove_sharer(l1);
            assert_eq!(d.owner(), None);
            assert_eq!(d.sharer_count(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn set_owner_rejects_an_id_past_the_sharer_mask() {
        DirEntry::new().set_owner(L1Id(64));
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn remove_sharer_rejects_an_id_past_the_sharer_mask() {
        DirEntry::new().remove_sharer(L1Id(64));
    }

    #[test]
    fn sharers_except_filters_self() {
        let mut d = DirEntry::new();
        d.add_sharer(L1Id(0));
        d.add_sharer(L1Id(1));
        d.add_sharer(L1Id(2));
        let others: Vec<_> = d.sharers_except(L1Id(1)).collect();
        assert_eq!(others, vec![L1Id(0), L1Id(2)]);
    }

    #[test]
    fn sharers_walks_every_set_bit_including_the_last() {
        let mut d = DirEntry::new();
        assert_eq!(d.sharers().count(), 0);
        for id in [0, 5, 62, 63] {
            d.add_sharer(L1Id(id));
        }
        let all: Vec<_> = d.sharers().collect();
        assert_eq!(all, vec![L1Id(0), L1Id(5), L1Id(62), L1Id(63)]);
    }

    #[test]
    fn display_impls() {
        assert_eq!(CoreId(2).to_string(), "cpu2");
        assert_eq!(L1Id(5).to_string(), "l1#5");
    }
}
