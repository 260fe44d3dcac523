//! Parallel execution of experiment grids.

use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use reunion_core::{
    measure, normalize, sampled_run, Baseline, SampleConfig, SampledRun, SystemConfig, TraceEvent,
};

use crate::grid::{Cell, ExperimentGrid, Metric};
use crate::json::JsonWriter;
use crate::report::{
    ExperimentReport, MeasureSummary, NormalizedSummary, Outcome, RunRecord, StaticSummary,
};

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
/// The runner never reads the environment: a command-line driver gets its
/// runner from [`RunOptions::runner`](crate::RunOptions::runner), which
/// honours the resolved `--threads` choice.
#[derive(Clone, Copy, Debug)]
pub struct Runner {
    threads: usize,
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
        ExperimentReport {
            id: grid.id().to_string(),
            caption: grid.caption().to_string(),
            sample: *grid.sample(),
            sample_overrides: grid.sample_overrides().to_vec(),
            records: self.execute(grid, &Baselines::default()),
        }
    }

    /// The one scheduling loop: measures every cell of `grid` and returns
    /// the records in grid order. A single worker runs on the calling
    /// thread in grid order; several claim cells costliest-first through
    /// one shared cursor — list scheduling, longest processing time first.
    /// Scheduling never affects results: each record is a pure function of
    /// (grid, cell), and `baselines`, which the caller creates empty for
    /// the call, only saves repeating work.
    fn execute(&self, grid: &ExperimentGrid, baselines: &Baselines) -> Vec<RunRecord> {
        let cells = grid.cells();
        let run_cell = |i: usize| measure_cell_with(grid, &cells[i], baselines);
        let workers = self.threads.min(cells.len());
        if workers <= 1 {
            return (0..cells.len()).map(run_cell).collect();
        }
        let claims = costliest_first(grid);
        // Relaxed: the cursor only hands out tickets; `claims` was
        // written before the workers were spawned.
        let cursor = AtomicUsize::new(0);
        let mut done: Vec<(usize, RunRecord)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        while let Some(&i) = claims.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                            done.push((i, run_cell(i)));
                        }
                        done
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("a worker panicked"))
                .collect()
        });
        // Each index was claimed once, so sorting restores grid order.
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, record)| record).collect()
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

/// The cell indices of `grid` in the order parallel workers claim them: by
/// descending [`cell_cost`], ties in grid order (the sort is stable).
fn costliest_first(grid: &ExperimentGrid) -> Vec<usize> {
    let mut claims: Vec<usize> = (0..grid.cells().len()).collect();
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
/// lets cells run on any thread, in any order, or one at a time
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
    use crate::ConfigPatch;
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
    /// equals a loop of independent `measure_cell` calls (each measuring
    /// its own baseline) — with observability off and on. (A short
    /// profile: every cell is measured ten times.)
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
        }
    }

    /// A latency sweep holds one baseline per workload, whatever the
    /// number of threads racing for it.
    #[test]
    fn a_run_measures_one_baseline_per_workload() {
        let grid = quick_grid(Metric::Normalized);
        for threads in [1, 4] {
            let baselines = Baselines::default();
            Runner::with_threads(threads).execute(&grid, &baselines);
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

    /// However many workers race over the grid — fewer, as many as, or more
    /// than its cells — each cell yields one record, in grid order.
    #[test]
    fn records_follow_grid_order() {
        let grid = quick_grid(Metric::Static);
        for threads in [1usize, 2, 3, 8, 64] {
            let report = Runner::with_threads(threads).run(&grid);
            assert_eq!(report.records.len(), grid.cells().len());
            for (record, cell) in report.records.iter().zip(grid.cells()) {
                assert_eq!(record.workload, cell.workload.name());
                assert_eq!(record.mode, cell.mode);
                assert_eq!(record.patch, cell.patch.label(), "{threads} threads");
            }
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
    /// many times the other's sampling windows under both patches.
    fn widened_moldyn_grid(metric: Metric) -> ExperimentGrid {
        let wide = SampleConfig {
            warmup: 10_000,
            window: 10_000,
            windows: 20,
        };
        ExperimentGrid::builder("t", "t")
            .metric(metric)
            .base(SystemConfig::small_test)
            .sample(SampleConfig::quick())
            .sample_override("moldyn", "a", wide)
            .sample_override("moldyn", "b", wide)
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
        // Ties keep grid order, so the claim order is one fixed list.
        assert_eq!(costliest_first(&grid), [2, 3, 0, 1]);
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
            .sample_override("moldyn", "base", wide)
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
