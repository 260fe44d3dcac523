//! Shard manifests: the byte-identity and crash-recovery guarantees of the
//! manifest library.
//!
//! Property under test: for any `N`-way partition of a report's records
//! into manifests, merging them produces a report byte-identical to a
//! serial single-process run — and a manifest torn mid-append, reopened and
//! completed, converges to exactly the manifest an uninterrupted writer
//! leaves.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use reunion_core::{ExecutionMode, ObsConfig, SampleConfig, SystemConfig};
use reunion_sim::{
    merge_manifests, read_manifest, ConfigPatch, ExperimentGrid, ExperimentReport, ManifestHeader,
    MergeError, Runner, ShardManifest, ShardSpec,
};
use reunion_workloads::Workload;

/// A fresh scratch directory per test invocation (std-only; the build
/// environment has no tempfile crate).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "reunion-sharding-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn small_sample() -> SampleConfig {
    SampleConfig {
        warmup: 5_000,
        window: 5_000,
        windows: 2,
    }
}

/// A grid with heterogeneous cells: two workloads, two modes, two patches,
/// and one workload widened under one patch (the `table3` em3d shape).
fn grid(sample: SampleConfig) -> ExperimentGrid {
    ExperimentGrid::builder("shardprop", "sharding property grid")
        .base(SystemConfig::small_test)
        .sample(sample)
        .sample_override("moldyn", "lat=0", small_sample().widened(3))
        .workloads(vec![
            Workload::by_name("sparse").unwrap(),
            Workload::by_name("moldyn").unwrap(),
        ])
        .modes(&[ExecutionMode::Strict, ExecutionMode::Reunion])
        .patches(vec![
            ConfigPatch::new("lat=0").latency(0),
            ConfigPatch::new("lat=20").latency(20),
        ])
        .build()
}

/// The property grid, run once on three threads and shared by every test.
fn report() -> &'static ExperimentReport {
    static REPORT: OnceLock<ExperimentReport> = OnceLock::new();
    REPORT.get_or_init(|| Runner::with_threads(3).run(&grid(small_sample())))
}

fn header(report: &ExperimentReport, shard: ShardSpec) -> ManifestHeader {
    ManifestHeader {
        id: report.id.clone(),
        caption: report.caption.clone(),
        shard,
        cells: report.records.len(),
        sample: report.sample,
        sample_overrides: report.sample_overrides.clone(),
        obs: ObsConfig::default(),
    }
}

/// Appends the records of `report` that `shard` owns to `manifest`, in
/// cell order.
fn append_owned(manifest: &mut ShardManifest, report: &ExperimentReport, shard: ShardSpec) {
    for (i, record) in report.records.iter().enumerate() {
        if shard.owns(i) {
            manifest.append(i, record).expect("append");
        }
    }
}

/// Writes `shard`'s records of `report` to a fresh manifest under `dir`,
/// as a writer streaming finished cells would, and returns its path.
fn write_shard(report: &ExperimentReport, shard: ShardSpec, dir: &Path) -> PathBuf {
    let mut manifest =
        ShardManifest::create_or_resume(dir, header(report, shard)).expect("manifest opens");
    append_owned(&mut manifest, report, shard);
    dir.join(shard.manifest_file_name(&report.id))
}

/// Merging any partition (N ∈ {1, 2, 3, 8}) of a threaded run's records is
/// byte-identical to the serial single-process report — including N = 8,
/// where some shards own a single cell.
#[test]
fn any_partition_merges_byte_identical_to_serial_run() {
    let expected = Runner::serial().run(&grid(small_sample())).to_json();
    for count in [1usize, 2, 3, 8] {
        let scratch = Scratch::new("partition");
        // Shards written in reverse: the order manifests are produced in
        // may not leak into the bytes.
        let paths: Vec<PathBuf> = (1..=count)
            .rev()
            .map(|index| write_shard(report(), ShardSpec::new(index, count), &scratch.0))
            .collect();
        let merged = merge_manifests(&paths).expect("complete partition merges");
        assert_eq!(
            merged.to_json(),
            expected,
            "{count}-way partition must reproduce the serial report byte for byte"
        );
    }
}

/// A manifest torn inside a record line (a kill mid-append), reopened with
/// the same header and completed, equals the manifest an uninterrupted
/// writer leaves, byte for byte.
#[test]
fn resume_after_kill_reproduces_the_manifest() {
    let report = report();
    let shard = ShardSpec::new(1, 2);

    let clean = Scratch::new("clean");
    let clean_path = write_shard(report, shard, &clean.0);
    let clean_bytes = std::fs::read_to_string(&clean_path).expect("clean manifest");
    let owned = (0..report.records.len()).filter(|&i| shard.owns(i)).count();
    assert!(owned >= 3, "grid too small to interrupt meaningfully");

    // "Kill" after two completed cells plus a torn half-record: keep the
    // header line, two record lines, and a prefix of the third.
    let lines: Vec<&str> = clean_bytes.lines().collect();
    let mut torn = lines[..3].join("\n");
    torn.push('\n');
    torn.push_str(&lines[3][..lines[3].len() / 2]);
    let killed = Scratch::new("killed");
    let path = killed.0.join(shard.manifest_file_name(&report.id));
    std::fs::write(&path, &torn).expect("write torn manifest");

    let mut manifest =
        ShardManifest::create_or_resume(&killed.0, header(report, shard)).expect("resume");
    let (_, recovered) = read_manifest(&path).expect("resumed manifest reads");
    assert_eq!(recovered.len(), 2, "both whole records must be recovered");
    for (i, record) in report.records.iter().enumerate() {
        if shard.owns(i) && !recovered.contains_key(&i) {
            manifest.append(i, record).expect("append");
        }
    }
    let resumed_bytes = std::fs::read_to_string(&path).expect("resumed manifest");
    assert_eq!(
        resumed_bytes, clean_bytes,
        "resumed manifest must equal the uninterrupted one byte for byte"
    );
}

/// A manifest left by a *different* experiment (here: another sampling
/// profile) is not resumed: reopening truncates it, so none of its
/// records survives into the new one.
#[test]
fn stale_manifest_from_different_profile_is_discarded() {
    let shard = ShardSpec::single();
    let scratch = Scratch::new("stale");
    let path = write_shard(report(), shard, &scratch.0);

    let wide = Runner::serial().run(&grid(small_sample().widened(2)));
    assert_ne!(wide.sample, report().sample, "the profiles must differ");
    let mut manifest =
        ShardManifest::create_or_resume(&scratch.0, header(&wide, shard)).expect("reopen");
    let (_, recovered) = read_manifest(&path).expect("reopened manifest reads");
    assert!(
        recovered.is_empty(),
        "a manifest from a different profile must not satisfy any cell"
    );
    append_owned(&mut manifest, &wide, shard);
    let merged = merge_manifests(&[path]).expect("merge");
    assert_eq!(merged.to_json(), wide.to_json());
}

/// Merging an incomplete partition names the uncovered cells instead of
/// silently producing a short report.
#[test]
fn merging_incomplete_partition_reports_missing_cells() {
    let report = report();
    let scratch = Scratch::new("missing");
    let path = write_shard(report, ShardSpec::new(1, 2), &scratch.0);
    match merge_manifests(&[path]) {
        Err(MergeError::MissingCells { missing }) => {
            let second = ShardSpec::new(2, 2);
            let expected: Vec<usize> = (0..report.records.len())
                .filter(|&i| second.owns(i))
                .collect();
            assert_eq!(missing, expected, "exactly shard 2's cells are missing");
        }
        other => panic!("expected MissingCells, got {other:?}"),
    }
}

/// Overlapping "partitions" (the same shard twice) are rejected rather
/// than double-counted.
#[test]
fn merging_overlapping_shards_is_rejected() {
    let a = Scratch::new("overlap-a");
    let b = Scratch::new("overlap-b");
    let one = write_shard(report(), ShardSpec::new(1, 2), &a.0);
    let dup = write_shard(report(), ShardSpec::new(1, 2), &b.0);
    match merge_manifests(&[one, dup]) {
        Err(MergeError::DuplicateCell { .. }) => {}
        other => panic!("expected DuplicateCell, got {other:?}"),
    }
}
