//! Parallel, sharded, resumable execution of experiment grids.

use std::cmp::Reverse;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use reunion_core::{measure, normalized_ipc, TraceEvent};

use crate::grid::{Cell, ExperimentGrid, Metric};
use crate::json::JsonWriter;
use crate::manifest::{ManifestHeader, ShardManifest};
use crate::report::{
    ExperimentReport, MeasureSummary, NormalizedSummary, Outcome, RunRecord, StaticSummary,
};
use crate::shard::ShardSpec;

/// Executes the cells of an [`ExperimentGrid`] and assembles an
/// [`ExperimentReport`].
///
/// Every cell simulates an independent `CmpSystem` (or matched pair of
/// systems) whose behaviour is fully determined by the seeded configuration,
/// so cells can run on any number of OS threads in any order; records are
/// reassembled in grid enumeration order afterwards. A parallel run and a
/// serial run of the same grid therefore produce byte-identical reports —
/// `reunion-sim`'s determinism guard tests exactly that. Workers claim
/// cells costliest-first from one shared list, so heterogeneous cells
/// (`table3`'s widened em3d windows next to ordinary ones) start early
/// instead of leaving one thread straggling at the end.
///
/// [`Runner::run_shard`] executes one [`ShardSpec`] slice of the grid,
/// streaming each finished cell to a crash-safe shard manifest;
/// `merge_shards` (or [`crate::merge_manifests`]) later combines the
/// manifests into the same byte-identical `BENCH_<id>.json`.
///
/// The runner never reads the environment: a command-line driver gets its
/// runner from [`RunOptions::runner`](crate::RunOptions::runner), which
/// honours the resolved `--threads` choice.
#[derive(Clone, Copy, Debug)]
pub struct Runner {
    threads: usize,
}

/// What [`Runner::run_shard`] did: where the manifest lives and how much of
/// the shard ran now versus was recovered from an interrupted run.
#[derive(Clone, Debug)]
pub struct ShardRunOutcome {
    /// The manifest file holding this shard's per-cell records.
    pub manifest_path: PathBuf,
    /// The shard that was executed.
    pub shard: ShardSpec,
    /// Number of grid cells this shard owns.
    pub owned_cells: usize,
    /// Cells recovered from an earlier interrupted run's manifest.
    pub resumed: usize,
    /// Cells executed by this invocation.
    pub executed: usize,
}

impl Runner {
    /// A single-threaded runner.
    pub fn serial() -> Self {
        Runner { threads: 1 }
    }

    /// A runner with exactly `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker");
        Runner { threads }
    }

    /// Whether this runner executes cells one at a time.
    #[cfg(test)]
    pub(crate) fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Executes every cell of `grid` and returns the assembled report.
    pub fn run(&self, grid: &ExperimentGrid) -> ExperimentReport {
        let indices: Vec<usize> = (0..grid.cells().len()).collect();
        let mut slots: Vec<Option<RunRecord>> = indices.iter().map(|_| None).collect();
        self.execute(grid, &indices, |i, record| {
            slots[i] = Some(record);
            Ok(())
        })
        .expect("collecting records in memory cannot fail");
        ExperimentReport {
            id: grid.id().to_string(),
            caption: grid.caption().to_string(),
            sample: *grid.sample(),
            sample_overrides: grid.sample_overrides().to_vec(),
            records: slots
                .into_iter()
                .map(|r| r.expect("every cell must produce a record"))
                .collect(),
        }
    }

    /// Executes the slice of `grid` owned by `shard`, streaming every
    /// finished cell to the shard's manifest under `dir` and resuming from
    /// any compatible manifest already there.
    ///
    /// The manifest (`MANIFEST_<id>.shard<i>of<N>.jsonl`) is flushed after
    /// each cell, so an interrupted run loses at most the cells in flight.
    /// Re-invoking with the same grid and shard picks up where the previous
    /// run stopped; a manifest written by a *different* grid, profile, or
    /// partition is discarded, not merged.
    ///
    /// # Errors
    ///
    /// Propagates manifest I/O failures; the simulation itself cannot fail.
    pub fn run_shard(
        &self,
        grid: &ExperimentGrid,
        shard: ShardSpec,
        dir: &Path,
    ) -> io::Result<ShardRunOutcome> {
        let header = ManifestHeader {
            id: grid.id().to_string(),
            caption: grid.caption().to_string(),
            shard,
            cells: grid.cells().len(),
            sample: *grid.sample(),
            sample_overrides: grid.sample_overrides().to_vec(),
            obs: *grid.observability(),
        };
        let mut manifest = ShardManifest::create_or_resume(dir, header)?;
        let owned = shard.cell_indices(grid.cells().len());
        let todo: Vec<usize> = owned
            .iter()
            .copied()
            .filter(|i| !manifest.completed().contains_key(i))
            .collect();
        self.execute(grid, &todo, |i, record| manifest.append(i, &record))?;
        Ok(ShardRunOutcome {
            manifest_path: manifest.path().to_path_buf(),
            shard,
            owned_cells: owned.len(),
            resumed: owned.len() - todo.len(),
            executed: todo.len(),
        })
    }

    /// The one scheduling loop: measures the cells at `indices` and hands
    /// each record to `sink` the moment it completes. A single worker runs
    /// on the calling thread in index order (so serial manifests are
    /// deterministic files); several claim cells costliest-first through
    /// one shared cursor — list scheduling, longest processing time first
    /// — and reach `sink` in completion order, one at a time. Scheduling
    /// never affects results: each record is a pure function of (grid,
    /// cell) and `sink` is told which cell it belongs to. The first error
    /// `sink` returns stops every worker before its next cell and is
    /// returned.
    fn execute(
        &self,
        grid: &ExperimentGrid,
        indices: &[usize],
        sink: impl FnMut(usize, RunRecord) -> io::Result<()> + Send,
    ) -> io::Result<()> {
        let state = Mutex::new((sink, Ok(())));
        let work = |next: &mut dyn FnMut() -> Option<usize>| {
            while let Some(i) = next() {
                if state.lock().expect("sink panicked").1.is_err() {
                    return;
                }
                let record = measure_cell(grid, &grid.cells()[i]);
                let mut guard = state.lock().expect("sink panicked");
                let (sink, result) = &mut *guard;
                if result.is_ok() {
                    *result = sink(i, record);
                }
            }
        };
        let workers = self.threads.min(indices.len());
        if workers <= 1 {
            let mut in_order = indices.iter().copied();
            work(&mut || in_order.next());
        } else {
            let claims = costliest_first(grid, indices);
            // Relaxed: the cursor only hands out tickets; `claims` was
            // written before the workers were spawned.
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        work(&mut || claims.get(cursor.fetch_add(1, Ordering::Relaxed)).copied())
                    });
                }
            });
        }
        state.into_inner().expect("sink panicked").1
    }
}

/// Deterministic relative cost estimate for one cell, in simulated cycles:
/// static cells are free (no simulation), raw cells run one system over
/// the cell's sampling profile, normalized cells run a matched pair (model
/// and baseline), i.e. twice the work.
fn cell_cost(grid: &ExperimentGrid, cell: &Cell) -> u64 {
    let systems = match grid.metric() {
        Metric::Static => return 0,
        Metric::Raw => 1,
        Metric::Normalized => 2,
    };
    let sample = grid.cell_sample(cell);
    systems * (sample.warmup + sample.window * sample.windows as u64)
}

/// `indices` in the order parallel workers claim them: by descending
/// [`cell_cost`], ties in the order given (the sort is stable).
fn costliest_first(grid: &ExperimentGrid, indices: &[usize]) -> Vec<usize> {
    let mut claims = indices.to_vec();
    claims.sort_by_key(|&i| Reverse(cell_cost(grid, &grid.cells()[i])));
    claims
}

/// Measures one cell of `grid`: the unit of work the runner schedules.
///
/// Pure apart from the simulation itself: the outcome is a function of
/// (grid base config, cell, cell sampling profile) only — which is what
/// lets cells run on any thread, in any order or shard, or one at a time
/// from a caller's own loop, and still assemble into a byte-identical
/// report.
pub fn measure_cell(grid: &ExperimentGrid, cell: &Cell) -> RunRecord {
    let sample = grid.cell_sample(cell);
    let outcome = match grid.metric() {
        Metric::Normalized => {
            let cfg = grid.cell_config(cell);
            let n = normalized_ipc(&cfg, &cell.workload, sample);
            dump_trace(grid, cell.index, &n.model.trace);
            Outcome::Normalized(Box::new(NormalizedSummary::from(&n)))
        }
        Metric::Raw => {
            let cfg = grid.cell_config(cell);
            let m = measure(&cfg, &cell.workload, sample);
            dump_trace(grid, cell.index, &m.trace);
            Outcome::Raw(Box::new(MeasureSummary::from(&m)))
        }
        Metric::Static => Outcome::Static(StaticSummary::of(&cell.workload)),
    };
    RunRecord {
        workload: cell.workload.name().to_string(),
        class: cell.workload.class(),
        mode: cell.mode,
        patch: cell.patch.label().to_string(),
        outcome,
    }
}

/// Writes a cell's retained check-protocol trace to
/// `TRACE_<grid>_<cell>.jsonl` under the grid's
/// [`trace_dir`](ExperimentGrid::trace_dir), one compact JSON object per
/// event. Only the command-line surface
/// ([`GridBuilder::run_options`](crate::GridBuilder::run_options) with
/// `--obs`) names a directory: a library caller who enables collection
/// through
/// [`GridBuilder::observability`](crate::GridBuilder::observability)
/// or on individual [`SystemConfig`](reunion_core::SystemConfig) values
/// gets in-memory collection and the report block without files appearing
/// in the working directory. No file is written when the trace is empty; a
/// dump failure is a warning, never a run failure, because the trace is a
/// diagnostic side channel and must not perturb the deterministic report
/// pipeline.
fn dump_trace(grid: &ExperimentGrid, cell_index: usize, trace: &[TraceEvent]) {
    let Some(dir) = grid.trace_dir().filter(|_| !trace.is_empty()) else {
        return;
    };
    let mut text = String::new();
    for e in trace {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.field_u64("cycle", e.cycle);
        w.field_u64("lp", u64::from(e.lp));
        w.field_str("kind", e.kind.as_str());
        w.field_u64("interval_id", e.interval_id);
        w.end_object();
        text.push_str(&w.finish());
        text.push('\n');
    }
    let path = dir.join(format!("TRACE_{}_{cell_index}.jsonl", grid.id()));
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("warning: could not write trace {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConfigPatch;
    use reunion_core::{ExecutionMode, SampleConfig, SystemConfig};
    use reunion_workloads::Workload;

    fn quick_grid(metric: Metric) -> ExperimentGrid {
        ExperimentGrid::builder("determinism", "serial vs parallel")
            .metric(metric)
            .base(SystemConfig::small_test)
            .sample(SampleConfig::quick())
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

    /// The determinism guard: parallel and serial execution of the same
    /// grid must produce byte-identical JSON reports.
    #[test]
    fn parallel_and_serial_reports_are_byte_identical() {
        let grid = quick_grid(Metric::Normalized);
        let serial = Runner::serial().run(&grid).to_json();
        let parallel = Runner::with_threads(4).run(&grid).to_json();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn records_follow_grid_order() {
        let grid = quick_grid(Metric::Static);
        let report = Runner::with_threads(3).run(&grid);
        assert_eq!(report.records.len(), grid.cells().len());
        for (record, cell) in report.records.iter().zip(grid.cells()) {
            assert_eq!(record.workload, cell.workload.name());
            assert_eq!(record.mode, cell.mode);
            assert_eq!(record.patch, cell.patch.label());
        }
    }

    #[test]
    fn raw_metric_measures_single_system() {
        let grid = ExperimentGrid::builder("raw", "raw")
            .metric(Metric::Raw)
            .base(SystemConfig::small_test)
            .sample(SampleConfig::quick())
            .workloads(vec![Workload::by_name("sparse").unwrap()])
            .modes(&[ExecutionMode::Reunion])
            .build();
        let report = Runner::serial().run(&grid);
        let m = report.records[0].raw().expect("raw outcome");
        assert!(m.ipc > 0.0);
        assert!(report.records[0].normalized().is_none());
    }

    #[test]
    fn env_override_forces_serial() {
        // `--threads 1` reaches the runner through `RunOptions::runner`
        // (tested there); here just check the explicit
        // constructors agree with is_serial().
        assert!(Runner::serial().is_serial());
        assert!(!Runner::with_threads(8).is_serial());
    }

    /// Two cheap workloads, one of them (moldyn, cells 2 and 3) widened to
    /// many times the other's sampling windows.
    fn widened_moldyn_grid(metric: Metric) -> ExperimentGrid {
        ExperimentGrid::builder("t", "t")
            .metric(metric)
            .base(SystemConfig::small_test)
            .sample(SampleConfig::quick())
            .sample_override(
                "moldyn",
                SampleConfig {
                    warmup: 10_000,
                    window: 10_000,
                    windows: 20,
                },
            )
            .workloads(vec![
                Workload::by_name("sparse").unwrap(),
                Workload::by_name("moldyn").unwrap(),
            ])
            .modes(&[ExecutionMode::Reunion])
            .patches(vec![ConfigPatch::new("a"), ConfigPatch::new("b")])
            .build()
    }

    #[test]
    fn cost_reflects_metric_and_sample() {
        let grid = widened_moldyn_grid(Metric::Normalized);
        let sparse = &grid.cells()[0];
        let moldyn = &grid.cells()[2];
        assert!(cell_cost(&grid, moldyn) > cell_cost(&grid, sparse));
        let raw = widened_moldyn_grid(Metric::Raw);
        assert_eq!(2 * cell_cost(&raw, sparse), cell_cost(&grid, sparse));
        let statics = widened_moldyn_grid(Metric::Static);
        assert_eq!(cell_cost(&statics, &statics.cells()[2]), 0);
    }

    #[test]
    fn the_widened_cells_are_claimed_first() {
        let grid = widened_moldyn_grid(Metric::Normalized);
        // Ties keep the order given, so the claim order is one fixed list.
        assert_eq!(costliest_first(&grid, &[0, 1, 2, 3]), [2, 3, 0, 1]);
        assert_eq!(costliest_first(&grid, &[3, 1, 2]), [3, 2, 1]);
    }

    /// Whatever subset `run_shard` passes, in whatever order, and however
    /// many workers race over it: each index reaches the sink once.
    #[test]
    fn every_index_of_a_subset_reaches_the_sink_exactly_once() {
        let grid = quick_grid(Metric::Static);
        let subset = [6usize, 1, 4, 0, 7];
        for threads in [1usize, 2, 3, 8, 64] {
            let mut seen = vec![0u32; grid.cells().len()];
            Runner::with_threads(threads)
                .execute(&grid, &subset, |i, record| {
                    assert_eq!(record.patch, grid.cells()[i].patch.label());
                    seen[i] += 1;
                    Ok(())
                })
                .unwrap();
            let expected: Vec<u32> = (0..seen.len())
                .map(|i| u32::from(subset.contains(&i)))
                .collect();
            assert_eq!(seen, expected, "{threads} threads");
        }
    }

    /// The sink's first error ends the run: it is what `execute` returns,
    /// and no later record — not even one already being measured on
    /// another thread — is handed to the sink.
    #[test]
    fn a_failing_sink_stops_the_run_and_its_error_is_returned() {
        let grid = quick_grid(Metric::Static);
        let indices: Vec<usize> = (0..grid.cells().len()).collect();
        for threads in [1usize, 4] {
            let mut calls = 0;
            let err = Runner::with_threads(threads)
                .execute(&grid, &indices, |_, _| {
                    calls += 1;
                    match calls {
                        1 => Ok(()),
                        _ => Err(io::Error::other(format!("disk full at call {calls}"))),
                    }
                })
                .expect_err("the sink's error must surface");
            assert_eq!(err.to_string(), "disk full at call 2", "{threads} threads");
            assert_eq!(calls, 2, "{threads} threads: sink called after it failed");
        }
    }

    #[test]
    fn sample_override_changes_measured_window() {
        let wide = SampleConfig {
            warmup: 10_000,
            window: 10_000,
            windows: 8,
        };
        let grid = ExperimentGrid::builder("widened", "sample override")
            .metric(Metric::Raw)
            .base(SystemConfig::small_test)
            .sample(SampleConfig::quick())
            .sample_override("moldyn", wide)
            .workloads(vec![
                Workload::by_name("sparse").unwrap(),
                Workload::by_name("moldyn").unwrap(),
            ])
            .modes(&[ExecutionMode::Reunion])
            .build();
        let report = Runner::serial().run(&grid);
        let sparse = report.records[0].raw().expect("raw outcome");
        let moldyn = report.records[1].raw().expect("raw outcome");
        // Four times the windows at the same window length: the widened
        // workload must retire several times the instructions.
        assert!(moldyn.user_instructions > 2 * sparse.user_instructions);
        assert_eq!(report.sample_overrides.len(), 1);
        assert!(report.to_json().contains("\"sample_overrides\""));
    }
}
