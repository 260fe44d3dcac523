//! Declarative experiment grids.

use std::path::{Path, PathBuf};

use reunion_core::{Engine, ExecutionMode, ObsConfig, SampleConfig, SystemConfig};
use reunion_workloads::Workload;

use crate::{ConfigPatch, RunOptions};

/// What each grid cell measures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Metric {
    /// Matched-pair IPC normalized against the non-redundant baseline
    /// (two systems per cell; Figures 5–7).
    #[default]
    Normalized,
    /// A single-system measurement without a baseline (Table 3).
    Raw,
    /// Static workload parameters only — no simulation (Table 2).
    Static,
}

/// One point of the experiment grid: workload × mode × patch.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Position in the grid's deterministic enumeration order.
    pub index: usize,
    /// The workload to run.
    pub workload: Workload,
    /// The execution mode of the measured system.
    pub mode: ExecutionMode,
    /// Configuration overrides on top of the grid's base configuration.
    pub patch: ConfigPatch,
}

/// A sampling profile that replaces the grid-wide one for the cells of one
/// workload under one patch (in every mode).
#[derive(Clone, Debug, PartialEq)]
pub struct SampleOverride {
    /// The workload's name.
    pub workload: String,
    /// The patch's label.
    pub patch: String,
    /// The profile those cells measure under.
    pub sample: SampleConfig,
}

/// A declarative description of one experiment: the full cartesian product
/// of workloads × execution modes × configuration patches, plus how to
/// measure each cell.
///
/// Grids are *data*; execution happens in [`crate::Runner`], which may
/// evaluate cells on many OS threads. Cell enumeration order (workload-major,
/// then mode, then patch) is part of the grid's contract: reports list
/// records in exactly this order regardless of execution schedule.
///
/// # Examples
///
/// ```
/// use reunion_core::{ExecutionMode, SampleConfig, SystemConfig};
/// use reunion_sim::{ConfigPatch, ExperimentGrid};
/// use reunion_workloads::Workload;
///
/// let grid = ExperimentGrid::builder("demo", "latency sweep")
///     .base(SystemConfig::small_test)
///     .sample(SampleConfig::quick())
///     .workloads(vec![Workload::by_name("sparse").unwrap()])
///     .modes(&[ExecutionMode::Strict, ExecutionMode::Reunion])
///     .patches([0u64, 10].iter().map(|&l| ConfigPatch::new(format!("lat={l}")).latency(l)).collect())
///     .build();
/// assert_eq!(grid.cells().len(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct ExperimentGrid {
    id: String,
    caption: String,
    metric: Metric,
    sample: SampleConfig,
    sample_overrides: Vec<SampleOverride>,
    base: fn(ExecutionMode) -> SystemConfig,
    engine: Engine,
    obs: ObsConfig,
    trace_dir: Option<PathBuf>,
    cells: Vec<Cell>,
}

impl ExperimentGrid {
    /// Starts building a grid; `id` names the JSON artifact
    /// (`BENCH_<id>.json`), `caption` is the human-readable title.
    pub fn builder(id: impl Into<String>, caption: impl Into<String>) -> GridBuilder {
        GridBuilder {
            id: id.into(),
            caption: caption.into(),
            metric: Metric::default(),
            sample: SampleConfig::default(),
            sample_overrides: Vec::new(),
            base: SystemConfig::table1,
            engine: Engine::default(),
            obs: ObsConfig::default(),
            trace_dir: None,
            workloads: Vec::new(),
            modes: vec![ExecutionMode::Reunion],
            patches: vec![ConfigPatch::baseline()],
        }
    }

    /// The grid's identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The human-readable caption.
    pub fn caption(&self) -> &str {
        &self.caption
    }

    /// What each cell measures.
    pub(crate) fn metric(&self) -> Metric {
        self.metric
    }

    /// The sampling profile shared by every cell (unless overridden for a
    /// workload and patch — see [`cell_sample`](Self::cell_sample)).
    pub fn sample(&self) -> &SampleConfig {
        &self.sample
    }

    /// Sampling overrides, in declaration order.
    pub fn sample_overrides(&self) -> &[SampleOverride] {
        &self.sample_overrides
    }

    /// The sampling profile one cell measures under: the override declared
    /// for its workload and patch, if any, the grid-wide profile otherwise.
    pub fn cell_sample(&self, cell: &Cell) -> &SampleConfig {
        self.sample_overrides
            .iter()
            .find(|o| o.workload == cell.workload.name() && o.patch == cell.patch.label())
            .map(|o| &o.sample)
            .unwrap_or(&self.sample)
    }

    /// The directory the runner writes retained event traces to, as
    /// `TRACE_<id>_<cell>.jsonl` files, or `None` for no dump. Only the
    /// command-line surface — [`GridBuilder::run_options`] with
    /// observability enabled — names one (its `out_dir`); a library caller
    /// enabling collection through [`GridBuilder::observability`] gets the
    /// in-memory trace and the report block without files appearing in the
    /// working directory.
    pub(crate) fn trace_dir(&self) -> Option<&Path> {
        self.trace_dir.as_deref()
    }

    /// All cells in deterministic enumeration order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The fully-patched configuration for one cell: base, then the cell's
    /// patch, then the grid-wide engine/observability overlay (patches
    /// sweep model parameters; how the cell is *simulated and observed* is
    /// a property of the run, so the overlay is applied last and uniformly).
    pub fn cell_config(&self, cell: &Cell) -> SystemConfig {
        let mut cfg = (self.base)(cell.mode);
        cell.patch.apply(&mut cfg);
        cfg.engine = self.engine;
        cfg.obs = self.obs;
        cfg
    }
}

/// Builder for [`ExperimentGrid`].
#[derive(Clone, Debug)]
pub struct GridBuilder {
    id: String,
    caption: String,
    metric: Metric,
    sample: SampleConfig,
    sample_overrides: Vec<SampleOverride>,
    base: fn(ExecutionMode) -> SystemConfig,
    engine: Engine,
    obs: ObsConfig,
    trace_dir: Option<PathBuf>,
    workloads: Vec<Workload>,
    modes: Vec<ExecutionMode>,
    patches: Vec<ConfigPatch>,
}

impl GridBuilder {
    /// Sets what each cell measures (default: [`Metric::Normalized`]).
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the sampling profile (default: the paper's profile).
    pub fn sample(mut self, sample: SampleConfig) -> Self {
        self.sample = sample;
        self
    }

    /// Overrides the sampling profile for the cells of one workload under
    /// the patch labelled `patch`.
    ///
    /// Used where a cell's event rate is below the single-event resolution
    /// of the shared profile: `table3` widens em3d's measured window under
    /// global phantoms until one input-incoherence event resolves inside
    /// the paper's band, and leaves em3d's other phantom strengths, which
    /// resolve thousands of events, at the shared profile. Overrides are
    /// part of the grid contract and are recorded in the report (and
    /// shard-manifest headers).
    pub fn sample_override(
        mut self,
        workload: impl Into<String>,
        patch: impl Into<String>,
        sample: SampleConfig,
    ) -> Self {
        self.sample_overrides.push(SampleOverride {
            workload: workload.into(),
            patch: patch.into(),
            sample,
        });
        self
    }

    /// Sets the base configuration constructor (default:
    /// [`SystemConfig::table1`]).
    pub fn base(mut self, base: fn(ExecutionMode) -> SystemConfig) -> Self {
        self.base = base;
        self
    }

    /// Records the resolved run surface's per-system choices — timing
    /// engine and observability — as the grid-wide overlay applied to
    /// every cell's configuration (see
    /// [`cell_config`](ExperimentGrid::cell_config)).
    ///
    /// The experiment binaries call this with their
    /// [`RunOptions`] so `--engine` / `--obs` reach the simulated systems;
    /// the execution-scoped choices (profile, threads) are consumed by the
    /// runner, not the grid. Enabling observability here — and only here —
    /// also opts the run into `TRACE_<id>_<cell>.jsonl` file dumps under
    /// `opts.out_dir`: trace files are part of the command-line artifact
    /// contract, not of in-memory collection.
    pub fn run_options(mut self, opts: &RunOptions) -> Self {
        self.engine = opts.engine;
        self.obs = opts.observability;
        self.trace_dir = opts.observability.enabled.then(|| opts.out_dir.clone());
        self
    }

    /// Sets the observability overlay directly (default: off). Unlike
    /// [`run_options`](Self::run_options) this is in-memory only: cells
    /// collect histograms and the bounded trace, the report carries the
    /// observability block, and no `TRACE_*.jsonl` files are written.
    pub fn observability(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Sets the workload axis.
    pub fn workloads(mut self, workloads: Vec<Workload>) -> Self {
        self.workloads = workloads;
        self
    }

    /// Sets the execution-mode axis (default: `[Reunion]`).
    pub fn modes(mut self, modes: &[ExecutionMode]) -> Self {
        self.modes = modes.to_vec();
        self
    }

    /// Sets the patch axis (default: the single [`ConfigPatch::baseline`]).
    pub fn patches(mut self, patches: Vec<ConfigPatch>) -> Self {
        self.patches = patches;
        self
    }

    /// Materializes the cartesian product.
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty, two patches share a label (labels are
    /// the lookup key within a report), or a sample override names a
    /// workload or patch label the grid does not have.
    pub fn build(self) -> ExperimentGrid {
        assert!(
            !self.workloads.is_empty(),
            "grid {:?} has no workloads",
            self.id
        );
        assert!(!self.modes.is_empty(), "grid {:?} has no modes", self.id);
        assert!(
            !self.patches.is_empty(),
            "grid {:?} has no patches",
            self.id
        );
        for (i, a) in self.patches.iter().enumerate() {
            for b in &self.patches[..i] {
                assert!(
                    a.label() != b.label(),
                    "grid {:?}: duplicate patch label {:?}",
                    self.id,
                    a.label()
                );
            }
        }
        let mut cells =
            Vec::with_capacity(self.workloads.len() * self.modes.len() * self.patches.len());
        for workload in &self.workloads {
            for &mode in &self.modes {
                for patch in &self.patches {
                    cells.push(Cell {
                        index: cells.len(),
                        workload: workload.clone(),
                        mode,
                        patch: patch.clone(),
                    });
                }
            }
        }
        for o in &self.sample_overrides {
            assert!(
                self.workloads.iter().any(|w| w.name() == o.workload),
                "grid {:?}: sample override for unknown workload {:?}",
                self.id,
                o.workload
            );
            assert!(
                self.patches.iter().any(|p| p.label() == o.patch),
                "grid {:?}: sample override for unknown patch {:?}",
                self.id,
                o.patch
            );
        }
        ExperimentGrid {
            id: self.id,
            caption: self.caption,
            metric: self.metric,
            sample: self.sample,
            sample_overrides: self.sample_overrides,
            base: self.base,
            engine: self.engine,
            obs: self.obs,
            trace_dir: self.trace_dir,
            cells,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_workloads() -> Vec<Workload> {
        vec![
            Workload::by_name("sparse").unwrap(),
            Workload::by_name("moldyn").unwrap(),
        ]
    }

    #[test]
    fn cells_enumerate_workload_major() {
        let grid = ExperimentGrid::builder("t", "t")
            .workloads(two_workloads())
            .modes(&[ExecutionMode::Strict, ExecutionMode::Reunion])
            .patches(vec![ConfigPatch::new("a"), ConfigPatch::new("b")])
            .build();
        let cells = grid.cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].workload.name(), "sparse");
        assert_eq!(cells[0].mode, ExecutionMode::Strict);
        assert_eq!(cells[0].patch.label(), "a");
        assert_eq!(cells[1].patch.label(), "b");
        assert_eq!(cells[2].mode, ExecutionMode::Reunion);
        assert_eq!(cells[4].workload.name(), "moldyn");
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn cell_config_applies_mode_and_patch() {
        let grid = ExperimentGrid::builder("t", "t")
            .base(SystemConfig::small_test)
            .workloads(two_workloads())
            .modes(&[ExecutionMode::Reunion])
            .patches(vec![ConfigPatch::new("lat=33").latency(33)])
            .build();
        let cfg = grid.cell_config(&grid.cells()[0]);
        assert_eq!(cfg.mode, ExecutionMode::Reunion);
        assert_eq!(cfg.comparison_latency, 33);
        // Everything else is small_test.
        assert_eq!(cfg.logical_processors, 2);
    }

    #[test]
    fn run_options_overlay_reaches_every_cell_config() {
        let opts = RunOptions {
            engine: Engine::Dense,
            observability: ObsConfig {
                enabled: true,
                trace_cap: 7,
            },
            out_dir: PathBuf::from("artifacts"),
            ..RunOptions::default()
        };
        let grid = ExperimentGrid::builder("t", "t")
            .base(SystemConfig::small_test)
            .run_options(&opts)
            .workloads(two_workloads())
            .patches(vec![ConfigPatch::new("lat=5").latency(5)])
            .build();
        assert_eq!(
            grid.trace_dir(),
            Some(opts.out_dir.as_path()),
            "the CLI surface opts into trace files, under its artifact directory"
        );
        for cell in grid.cells() {
            let cfg = grid.cell_config(cell);
            assert_eq!(cfg.engine, Engine::Dense);
            assert!(cfg.obs.enabled);
            assert_eq!(cfg.obs.trace_cap, 7);
            assert_eq!(cfg.comparison_latency, 5, "patches still apply");
        }
    }

    #[test]
    fn default_overlay_is_env_free_and_off() {
        let grid = ExperimentGrid::builder("t", "t")
            .base(SystemConfig::small_test)
            .workloads(two_workloads())
            .build();
        let cfg = grid.cell_config(&grid.cells()[0]);
        assert_eq!(cfg.engine, Engine::default());
        assert!(!cfg.obs.enabled);
        assert!(grid.trace_dir().is_none());
    }

    #[test]
    fn programmatic_observability_stays_in_memory() {
        let grid = ExperimentGrid::builder("t", "t")
            .base(SystemConfig::small_test)
            .observability(ObsConfig {
                enabled: true,
                trace_cap: 16,
            })
            .workloads(two_workloads())
            .build();
        assert!(
            grid.cell_config(&grid.cells()[0]).obs.enabled,
            "collection is on"
        );
        assert!(
            grid.trace_dir().is_none(),
            "library callers must not litter the working directory"
        );
    }

    #[test]
    fn sample_override_applies_to_one_workload_only() {
        let wide = SampleConfig {
            warmup: 1_000,
            window: 1_000,
            windows: 64,
        };
        let grid = ExperimentGrid::builder("t", "t")
            .sample(SampleConfig::quick())
            .sample_override("moldyn", "wide", wide)
            .workloads(two_workloads())
            .patches(vec![ConfigPatch::new("narrow"), ConfigPatch::new("wide")])
            .build();
        let samples: Vec<&SampleConfig> =
            grid.cells().iter().map(|c| grid.cell_sample(c)).collect();
        let quick = &SampleConfig::quick();
        // sparse × {narrow, wide}, then moldyn × {narrow, wide}.
        assert_eq!(samples, [quick, quick, quick, &wide]);
        assert_eq!(grid.sample_overrides().len(), 1);
    }

    #[test]
    #[should_panic(expected = "sample override for unknown workload")]
    fn sample_override_must_name_a_grid_workload() {
        ExperimentGrid::builder("t", "t")
            .sample_override("nope", "base", SampleConfig::quick())
            .workloads(two_workloads())
            .build();
    }

    #[test]
    #[should_panic(expected = "sample override for unknown patch")]
    fn sample_override_must_name_a_grid_patch() {
        ExperimentGrid::builder("t", "t")
            .sample_override("moldyn", "nope", SampleConfig::quick())
            .workloads(two_workloads())
            .build();
    }

    #[test]
    #[should_panic(expected = "duplicate patch label")]
    fn duplicate_patch_labels_rejected() {
        ExperimentGrid::builder("t", "t")
            .workloads(two_workloads())
            .patches(vec![
                ConfigPatch::new("x"),
                ConfigPatch::new("x").latency(1),
            ])
            .build();
    }
}
