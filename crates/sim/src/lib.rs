//! Experiment-runner subsystem: declarative grids, parallel/sharded
//! execution, resumable manifests, structured reports.
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
//!   experiment driver shares (profile, engine, serial/threads, shard,
//!   observability, artifact directory): one command-line flag each —
//!   the artifact directory alone is `REUNION_OUT_DIR` — with unrecognized
//!   arguments handed back to the caller ([`RUN_OPTIONS_USAGE`] is the
//!   usage line). [`RunOptions::parse_cli`], called once at `main`, is the
//!   only reader of the process environment; everything below takes the
//!   resolved value.
//! * [`ShardSpec`] / [`ShardManifest`] / [`merge_manifests`] — sharded,
//!   resumable execution: `--shard i/N` (or the programmatic
//!   [`ShardSpec`] API) selects a deterministic round-robin slice of the
//!   grid, [`Runner::run_shard`] streams each finished cell to a crash-safe
//!   manifest (a [`ManifestHeader`] line, then one record per cell;
//!   [`ShardRunOutcome`] says how much was resumed) so an interrupted run
//!   resumes instead of restarting, and merging a complete partition
//!   ([`find_manifests`], [`read_manifest`]; an incomplete or mixed one is
//!   a [`MergeError`]) reproduces the single-process report byte for byte.
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
//! Determinism is a hard invariant: a parallel run, a serial run, and any
//! `N`-way sharded-then-merged run of the same grid produce
//! **byte-identical** JSON (guarded by tests in [`runner`](crate::Runner)
//! and the `sharding` integration suite): nothing about scheduling or
//! partitioning leaks into results.
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
//! Sharded execution of the same grid (two shards, one process):
//!
//! ```
//! use reunion_core::{ExecutionMode, SampleConfig, SystemConfig};
//! use reunion_sim::{merge_manifests, ExperimentGrid, Runner, ShardSpec};
//! use reunion_workloads::Workload;
//!
//! let grid = ExperimentGrid::builder("doc_shard", "sharded run")
//!     .base(SystemConfig::small_test)
//!     .sample(SampleConfig::quick())
//!     .workloads(vec![Workload::by_name("sparse").unwrap()])
//!     .modes(&[ExecutionMode::NonRedundant, ExecutionMode::Reunion])
//!     .build();
//! let dir = std::env::temp_dir().join(format!("reunion-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let a = Runner::serial().run_shard(&grid, ShardSpec::new(1, 2), &dir).unwrap();
//! let b = Runner::serial().run_shard(&grid, ShardSpec::new(2, 2), &dir).unwrap();
//! let merged = merge_manifests(&[a.manifest_path, b.manifest_path]).unwrap();
//! assert_eq!(merged.to_json(), Runner::serial().run(&grid).to_json());
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
pub use merge::{find_manifests, merge_manifests, MergeError};
pub use options::{RunOptions, RUN_OPTIONS_USAGE};
pub use patch::ConfigPatch;
pub use report::{
    ExperimentReport, MeasureSummary, NormalizedSummary, Outcome, RunRecord, StaticSummary,
};
pub use runner::{measure_cell, Runner, ShardRunOutcome};
pub use shard::ShardSpec;
