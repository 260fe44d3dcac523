//! Merging shard manifests back into a single experiment report.
//!
//! Given the manifests of a complete partition (any `N`),
//! [`merge_manifests`] reassembles the
//! [`ExperimentReport`](crate::ExperimentReport) — byte-identical to the
//! report a single-process run of the same grid would have produced,
//! because cell measurement is a pure function of (grid, cell) and records
//! round-trip exactly through manifest lines.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;

use crate::manifest::{read_manifest, ManifestHeader};
use crate::report::ExperimentReport;

/// Why a set of manifests could not be merged.
#[derive(Debug)]
pub enum MergeError {
    /// No manifest paths were supplied.
    Empty,
    /// A manifest could not be read or parsed.
    Read(String),
    /// A manifest records a different experiment (grid, partition width,
    /// sampling profile, …) than the first one.
    Mismatch {
        /// The offending manifest.
        path: PathBuf,
        /// How its header disagrees.
        detail: String,
    },
    /// Two manifests recorded the same cell — the partition overlapped.
    DuplicateCell {
        /// The doubly-recorded cell index.
        index: usize,
    },
    /// The manifests do not cover the whole grid (shards missing, or a
    /// shard was interrupted and never resumed to completion).
    MissingCells {
        /// Uncovered cell indices, ascending (capped for display).
        missing: Vec<usize>,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Empty => write!(f, "no shard manifests to merge"),
            MergeError::Read(e) => write!(f, "{e}"),
            MergeError::Mismatch { path, detail } => {
                write!(f, "{}: {detail}", path.display())
            }
            MergeError::DuplicateCell { index } => {
                write!(f, "cell {index} recorded by more than one manifest")
            }
            MergeError::MissingCells { missing } => {
                write!(
                    f,
                    "{} cell(s) not covered by any manifest (first missing: {:?}); \
                     run the missing shards (or resume the interrupted ones) first",
                    missing.len(),
                    &missing[..missing.len().min(8)]
                )
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Merges the shard manifests at `paths` into one report.
///
/// All manifests must describe the same experiment (identical grid id,
/// caption, cell count, sampling profile and overrides, and partition
/// width), and together they must cover every grid cell exactly once.
/// Records are reassembled in grid enumeration order, so the merged
/// report's JSON is byte-identical to a single-process run's.
///
/// # Errors
///
/// See [`MergeError`]; incomplete coverage names the missing cells so the
/// operator knows which shard to (re)run.
pub fn merge_manifests(paths: &[PathBuf]) -> Result<ExperimentReport, MergeError> {
    let first_path = paths.first().ok_or(MergeError::Empty)?;
    let (reference, mut records) = read_manifest(first_path).map_err(MergeError::Read)?;
    for path in &paths[1..] {
        let (header, shard_records) = read_manifest(path).map_err(MergeError::Read)?;
        if !header.same_experiment(&reference) {
            return Err(MergeError::Mismatch {
                path: path.clone(),
                detail: format!(
                    "manifest describes a different experiment than {} \
                     (grid {:?} shard {} vs grid {:?} shard {})",
                    first_path.display(),
                    header.id,
                    header.shard,
                    reference.id,
                    reference.shard,
                ),
            });
        }
        for (index, record) in shard_records {
            if records.insert(index, record).is_some() {
                return Err(MergeError::DuplicateCell { index });
            }
        }
    }
    let missing: Vec<usize> = (0..reference.cells)
        .filter(|i| !records.contains_key(i))
        .collect();
    if !missing.is_empty() {
        return Err(MergeError::MissingCells { missing });
    }
    Ok(report_from_parts(reference, records))
}

fn report_from_parts(
    header: ManifestHeader,
    records: BTreeMap<usize, crate::report::RunRecord>,
) -> ExperimentReport {
    ExperimentReport {
        id: header.id,
        caption: header.caption,
        sample: header.sample,
        sample_overrides: header.sample_overrides,
        records: records.into_values().collect(),
    }
}
