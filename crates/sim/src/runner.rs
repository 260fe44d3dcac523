//! Parallel, sharded, resumable execution of experiment grids.

use std::cmp::Reverse;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use reunion_core::{
    measure, normalize, sampled_run, Baseline, SampleConfig, SampledRun, SystemConfig, TraceEvent,
};

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
/// Within one call, cells whose models share a non-redundant
/// [`baseline`](SystemConfig::baseline) — a latency or bandwidth sweep's
/// cells of one workload — share one measurement of it: the first cell to
/// need it runs it, any other waits for it. A baseline is a pure function
/// of its key, so the report is the same bytes as measuring each cell on
/// its own ([`measure_cell`]); a second call measures everything again.
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
        self.execute(grid, &indices, &Baselines::default(), |i, record| {
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
        self.execute(grid, &todo, &Baselines::default(), |i, record| {
            manifest.append(i, &record)
        })?;
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
    /// cell) and `sink` is told which cell it belongs to — `baselines`,
    /// which the caller creates empty for the call, only saves repeating
    /// work. The first error `sink` returns stops every worker before its
    /// next cell and is returned.
    fn execute(
        &self,
        grid: &ExperimentGrid,
        indices: &[usize],
        baselines: &Baselines,
        sink: impl FnMut(usize, RunRecord) -> io::Result<()> + Send,
    ) -> io::Result<()> {
        let state = Mutex::new((sink, Ok(())));
        let work = |next: &mut dyn FnMut() -> Option<usize>| {
            while let Some(i) = next() {
                if state.lock().expect("sink panicked").1.is_err() {
                    return;
                }
                let record = measure_cell_with(grid, &grid.cells()[i], baselines);
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
/// the cell's sampling profile, normalized cells are charged for two — the
/// model and a baseline. Only the first cell of a baseline key actually
/// pays for the baseline (see [`Baselines`]); which cell that is depends
/// on the schedule, so the estimate charges every cell alike.
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

/// The baselines measured during one [`Runner`] call, keyed by (workload,
/// [`SystemConfig::baseline`], sampling profile) — at most a grid's
/// workloads × non-redundant shapes, so a linear search suffices. A slot's
/// `OnceLock` is filled by the first cell that needs it; a cell on another
/// thread that needs it meanwhile waits for that one measurement.
#[derive(Default)]
struct Baselines {
    slots: Mutex<Vec<BaselineSlot>>,
}

type BaselineSlot = (
    &'static str,
    SystemConfig,
    SampleConfig,
    Arc<OnceLock<Baseline>>,
);

impl Baselines {
    /// The slot of the baseline `model` normalizes against, created empty
    /// if no cell has asked for it yet.
    fn slot(
        &self,
        workload: &'static str,
        model: &SystemConfig,
        sample: &SampleConfig,
    ) -> Arc<OnceLock<Baseline>> {
        let key = model.baseline();
        let mut slots = self.slots.lock().expect("a baseline lookup panicked");
        if let Some((.., slot)) = slots
            .iter()
            .find(|(w, cfg, s, _)| *w == workload && *cfg == key && s == sample)
        {
            return Arc::clone(slot);
        }
        let slot = Arc::default();
        slots.push((workload, key, *sample, Arc::clone(&slot)));
        slot
    }
}

/// Measures one cell of `grid`: the unit of work the runner schedules.
///
/// Pure apart from the simulation itself: the outcome is a function of
/// (grid base config, cell, cell sampling profile) only — which is what
/// lets cells run on any thread, in any order or shard, or one at a time
/// from a caller's own loop, and still assemble into a byte-identical
/// report. A call on its own measures the cell's baseline too; only a
/// [`Runner`] call shares baselines between cells.
pub fn measure_cell(grid: &ExperimentGrid, cell: &Cell) -> RunRecord {
    measure_cell_with(grid, cell, &Baselines::default())
}

/// [`measure_cell`], taking the cell's baseline from `baselines` (and
/// measuring it there if it is not yet).
fn measure_cell_with(grid: &ExperimentGrid, cell: &Cell, baselines: &Baselines) -> RunRecord {
    let sample = grid.cell_sample(cell);
    let outcome = match grid.metric() {
        Metric::Normalized => {
            let cfg = grid.cell_config(cell);
            // Destructured in the `let`, so the model's system is dropped
            // before a baseline's is built: one system of a cell is alive.
            let SampledRun {
                measurement,
                window_ipc,
                ..
            } = sampled_run(&cfg, &cell.workload, sample);
            let slot = baselines.slot(cell.workload.name(), &cfg, sample);
            let baseline = slot.get_or_init(|| Baseline::measure(&cfg, &cell.workload, sample));
            let n = normalize(measurement, &window_ipc, baseline);
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
    use crate::{merge_manifests, ConfigPatch};
    use reunion_core::{ExecutionMode, ObsConfig};
    use reunion_workloads::Workload;

    fn quick_grid(metric: Metric) -> ExperimentGrid {
        latency_sweep(metric, SampleConfig::quick(), ObsConfig::default())
    }

    /// 2 workloads × {Strict, Reunion} × 3 latencies: 12 cells over two
    /// baselines.
    fn latency_sweep(metric: Metric, sample: SampleConfig, obs: ObsConfig) -> ExperimentGrid {
        ExperimentGrid::builder("determinism", "serial vs parallel")
            .metric(metric)
            .base(SystemConfig::small_test)
            .sample(sample)
            .observability(obs)
            .workloads(vec![
                Workload::by_name("sparse").unwrap(),
                Workload::by_name("moldyn").unwrap(),
            ])
            .modes(&[ExecutionMode::Strict, ExecutionMode::Reunion])
            .patches(vec![
                ConfigPatch::new("lat=0").latency(0),
                ConfigPatch::new("lat=20").latency(20),
                ConfigPatch::new("lat=40").latency(40),
            ])
            .build()
    }

    /// Sharing baselines changes no byte: a run, whatever its thread count,
    /// and a 2-way sharded run merged, both equal a loop of independent
    /// `measure_cell` calls (each measuring its own baseline) — with
    /// observability off and on. (A short profile: every cell is measured
    /// twelve times.)
    #[test]
    fn shared_baselines_give_the_bytes_of_one_baseline_per_cell() {
        let sample = SampleConfig {
            warmup: 4_000,
            window: 4_000,
            windows: 2,
        };
        for enabled in [false, true] {
            let obs = ObsConfig {
                enabled,
                ..ObsConfig::default()
            };
            let grid = latency_sweep(Metric::Normalized, sample, obs);
            let expected = ExperimentReport {
                id: grid.id().to_string(),
                caption: grid.caption().to_string(),
                sample: *grid.sample(),
                sample_overrides: Vec::new(),
                records: grid
                    .cells()
                    .iter()
                    .map(|c| measure_cell(&grid, c))
                    .collect(),
            }
            .to_json();
            for threads in [1, 2, 4, 8] {
                let report = Runner::with_threads(threads).run(&grid).to_json();
                assert!(report == expected, "{threads} threads, obs {enabled}");
            }

            let dir = std::env::temp_dir().join(format!(
                "reunion-runner-memo-{}-{enabled}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let manifests: Vec<PathBuf> = (1..=2)
                .map(|i| {
                    let shard = ShardSpec::new(i, 2);
                    let run = Runner::with_threads(2).run_shard(&grid, shard, &dir);
                    run.unwrap().manifest_path
                })
                .collect();
            let merged = merge_manifests(&manifests).unwrap().to_json();
            std::fs::remove_dir_all(&dir).ok();
            assert!(merged == expected, "sharded, obs {enabled}");
        }
    }

    /// A latency sweep holds one baseline per workload, whatever the
    /// number of threads racing for it.
    #[test]
    fn a_run_measures_one_baseline_per_workload() {
        let grid = quick_grid(Metric::Normalized);
        let indices: Vec<usize> = (0..grid.cells().len()).collect();
        for threads in [1, 4] {
            let baselines = Baselines::default();
            Runner::with_threads(threads)
                .execute(&grid, &indices, &baselines, |_, _| Ok(()))
                .unwrap();
            let slots = baselines.slots.into_inner().unwrap();
            let workloads: Vec<&str> = slots.iter().map(|(w, ..)| *w).collect();
            let mut sorted = workloads.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, ["moldyn", "sparse"], "{threads} threads");
            assert!(slots.iter().all(|(.., slot)| slot.get().is_some()));
        }
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
                .execute(&grid, &subset, &Baselines::default(), |i, record| {
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
                .execute(&grid, &indices, &Baselines::default(), |_, _| {
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
