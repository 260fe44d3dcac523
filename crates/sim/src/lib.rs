//! Experiment-runner subsystem: declarative grids, parallel execution,
//! structured reports.
//!
//! The paper's evaluation is a pile of cartesian products — every figure
//! and table sweeps (workload × execution mode × one or two configuration
//! knobs) and aggregates the results. This crate factors that shape out of
//! the individual experiment binaries:
//!
//! * [`ExperimentGrid`] (built through [`GridBuilder`]) — a *declarative*
//!   description of one experiment: the workload/mode/patch axes, the base
//!   [`SystemConfig`] they override, the sampling profile (with optional
//!   per-workload overrides), and what to measure per [`Cell`]
//!   ([`Metric`]).
//! * [`ConfigPatch`] — a labeled sparse override (comparison latency,
//!   phantom strength, TLB model, consistency, fingerprint interval, …).
//! * [`Runner`] — executes cells across OS threads, costliest cells
//!   first, so heterogeneous cells don't straggle; [`measure_cell`] is the
//!   unit of work it schedules, callable one cell at a time.
//! * [`RunOptions`] — one typed resolution of the run surface every
//!   experiment driver shares (profile, engine, serial/threads,
//!   observability, artifact directory): one command-line flag each —
//!   the artifact directory alone is `REUNION_OUT_DIR` — with unrecognized
//!   arguments handed back to the caller ([`RUN_OPTIONS_USAGE`] is the
//!   usage line). [`RunOptions::parse_cli`], called once at `main`, is the
//!   only reader of the process environment; everything below takes the
//!   resolved value.
//! * [`ShardSpec`] / [`ShardManifest`] / [`merge_manifests`] — a manifest
//!   library: a crash-safe, append-only file of one [`ManifestHeader`]
//!   line and one record per cell, owned by a round-robin [`ShardSpec`]
//!   slice of the grid. A torn trailing line is dropped on reopening, and
//!   merging a complete partition ([`read_manifest`]; an incomplete or
//!   mixed one is a [`MergeError`]) reproduces the report byte for byte.
//!   No run writes one: the repo benchmark times this round trip.
//! * [`ExperimentReport`] / [`RunRecord`] — results in grid enumeration
//!   order with lookup and aggregation helpers; a record's [`Outcome`] is
//!   a [`NormalizedSummary`], a [`MeasureSummary`] or a [`StaticSummary`]
//!   according to the grid's metric. [`ExperimentReport::write_json`]
//!   emits the `BENCH_<id>.json` trajectory artifact the benchmarks are
//!   tracked by.
//! * [`JsonWriter`] / [`parse_json`] — the deterministic, dependency-free
//!   JSON serializer and reader ([`JsonValue`], [`JsonParseError`]) behind
//!   every artifact and manifest.
//!
//! Determinism is a hard invariant: a parallel run and a serial run of the
//! same grid produce **byte-identical** JSON, and so does a report merged
//! from any `N`-way partition of its records into manifests (guarded by
//! tests in [`runner`](crate::Runner) and the `sharding` integration
//! suite): nothing about scheduling or partitioning leaks into results.
//!
//! # Examples
//!
//! ```
//! use reunion_core::{ExecutionMode, SampleConfig, SystemConfig};
//! use reunion_sim::{ConfigPatch, ExperimentGrid, RunOptions};
//! use reunion_workloads::Workload;
//!
//! // Figure-6-shaped sweep, shrunk to doc-test scale.
//! let grid = ExperimentGrid::builder("doc", "latency sweep")
//!     .base(SystemConfig::small_test)
//!     .sample(SampleConfig::quick())
//!     .workloads(vec![Workload::by_name("sparse").unwrap()])
//!     .modes(&[ExecutionMode::Reunion])
//!     .patches(vec![
//!         ConfigPatch::new("lat=0").latency(0),
//!         ConfigPatch::new("lat=40").latency(40),
//!     ])
//!     .build();
//! let report = RunOptions::default().runner().run(&grid);
//! let fast = report.get("sparse", ExecutionMode::Reunion, "lat=0").unwrap();
//! assert!(fast.normalized_ipc().unwrap() > 0.0);
//! ```
//!
//! A report's records, split over two manifests and merged back:
//!
//! ```
//! use reunion_core::{ExecutionMode, SampleConfig, SystemConfig};
//! use reunion_sim::{
//!     merge_manifests, ExperimentGrid, ManifestHeader, Runner, ShardManifest, ShardSpec,
//! };
//! use reunion_workloads::Workload;
//!
//! let grid = ExperimentGrid::builder("doc_shard", "manifest round trip")
//!     .base(SystemConfig::small_test)
//!     .sample(SampleConfig::quick())
//!     .workloads(vec![Workload::by_name("sparse").unwrap()])
//!     .modes(&[ExecutionMode::NonRedundant, ExecutionMode::Reunion])
//!     .build();
//! let report = Runner::serial().run(&grid);
//! let dir = std::env::temp_dir().join(format!("reunion-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let mut paths = Vec::new();
//! for shard in [ShardSpec::new(1, 2), ShardSpec::new(2, 2)] {
//!     let header = ManifestHeader {
//!         id: report.id.clone(),
//!         caption: report.caption.clone(),
//!         shard,
//!         cells: report.records.len(),
//!         sample: report.sample,
//!         sample_overrides: report.sample_overrides.clone(),
//!         obs: Default::default(),
//!     };
//!     let mut manifest = ShardManifest::create_or_resume(&dir, header).unwrap();
//!     for (i, record) in report.records.iter().enumerate().filter(|(i, _)| shard.owns(*i)) {
//!         manifest.append(i, record).unwrap();
//!     }
//!     paths.push(dir.join(shard.manifest_file_name(&report.id)));
//! }
//! assert_eq!(merge_manifests(&paths).unwrap().to_json(), report.to_json());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! [`SystemConfig`]: reunion_core::SystemConfig

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod grid;
mod json;
mod manifest;
mod merge;
mod options;
mod patch;
mod report;
mod runner;
mod shard;

pub use grid::{Cell, ExperimentGrid, GridBuilder, Metric};
pub use json::{parse_json, JsonParseError, JsonValue, JsonWriter};
pub use manifest::{read_manifest, ManifestHeader, ShardManifest};
pub use merge::{merge_manifests, MergeError};
pub use options::{RunOptions, RUN_OPTIONS_USAGE};
pub use patch::ConfigPatch;
pub use report::{
    ExperimentReport, MeasureSummary, NormalizedSummary, Outcome, RunRecord, StaticSummary,
};
pub use runner::{measure_cell, Runner};
pub use shard::ShardSpec;
