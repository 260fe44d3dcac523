//! Deterministic partitioning of a grid into independently runnable shards.
//!
//! A [`ShardSpec`] names one of `N` disjoint slices of a grid's cell index
//! space. The partition is round-robin (`cell_index % N`), so heterogeneous
//! cells — e.g. `table3`'s widened em3d windows next to ordinary cells —
//! spread evenly across shards instead of one shard inheriting a contiguous
//! run of expensive cells. Because cell measurement is a pure function of
//! (grid, cell), any partition of a grid merges back into a report that is
//! byte-identical to a single-process run (see [`crate::merge_manifests`]).

use std::fmt;

/// One shard of an `N`-way partition of a grid's cells (1-based).
///
/// ```
/// use reunion_sim::ShardSpec;
///
/// let shard = ShardSpec::new(2, 3);
/// assert_eq!(shard.index(), 2);
/// assert_eq!(shard.count(), 3);
/// // Round-robin: shard 2 of 3 owns cells 1, 4, 7, ...
/// let owned: Vec<usize> = (0..8).filter(|&i| shard.owns(i)).collect();
/// assert_eq!(owned, [1, 4, 7]);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    index: usize,
    count: usize,
}

impl ShardSpec {
    /// Shard `index` of `count` (both 1-based; `index <= count`).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `index` is outside `1..=count`.
    pub fn new(index: usize, count: usize) -> Self {
        Self::try_new(index, count).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`new`](Self::new): how a manifest header, an
    /// untrusted source, constructs its shard position.
    pub(crate) fn try_new(index: usize, count: usize) -> Result<Self, String> {
        if count == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if !(1..=count).contains(&index) {
            return Err(format!("shard index {index} outside 1..={count}"));
        }
        Ok(ShardSpec { index, count })
    }

    /// The trivial 1/1 "partition": every cell in one shard.
    pub fn single() -> Self {
        ShardSpec { index: 1, count: 1 }
    }

    /// This shard's 1-based position within the partition.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The total number of shards in the partition.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether this shard owns the cell at `cell_index` (round-robin).
    pub fn owns(&self, cell_index: usize) -> bool {
        cell_index % self.count == self.index - 1
    }

    /// Canonical manifest file name for this shard of grid `id`:
    /// `MANIFEST_<id>.shard<i>of<N>.jsonl`.
    pub fn manifest_file_name(&self, id: &str) -> String {
        format!("MANIFEST_{id}.shard{}of{}.jsonl", self.index, self.count)
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_partition_is_disjoint_and_complete() {
        let total = 23;
        for count in [1usize, 2, 3, 8] {
            let mut seen = vec![0u32; total];
            for index in 1..=count {
                let shard = ShardSpec::new(index, count);
                for i in (0..total).filter(|&i| shard.owns(i)) {
                    seen[i] += 1;
                }
            }
            assert!(
                seen.iter().all(|&n| n == 1),
                "{count}-way partition must cover every cell exactly once"
            );
        }
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(ShardSpec::try_new(0, 2).is_err());
        assert!(ShardSpec::try_new(3, 2).is_err());
        assert!(ShardSpec::try_new(1, 0).is_err());
        assert_eq!(ShardSpec::try_new(2, 3), Ok(ShardSpec::new(2, 3)));
        assert_eq!(ShardSpec::new(2, 3).to_string(), "2/3");
    }

    #[test]
    fn manifest_names_are_unique_per_shard() {
        let a = ShardSpec::new(1, 2).manifest_file_name("fig5");
        let b = ShardSpec::new(2, 2).manifest_file_name("fig5");
        assert_ne!(a, b);
        assert!(a.starts_with("MANIFEST_fig5.shard"));
    }
}
