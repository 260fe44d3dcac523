//! The five benchmark workloads: which grids each one runs and how its
//! cells group into timed units.
//!
//! Cell lists are part of the benchmark's contract (see README.md): the
//! time budget scales the number of rounds, never these lists. Nothing
//! here sets `intracell_threads`, reads the environment or calls a
//! deprecated shim, so the package compiles whichever way the roadmap's
//! prove-or-remove items land. `--seed` reaches the simulator through
//! `ConfigPatch::seed` only.

use reunion_core::{ExecutionMode, SampleConfig, SystemConfig};
use reunion_mem::PhantomStrength;
use reunion_sim::{Cell, ConfigPatch, ExperimentGrid};
use reunion_workloads::{suite, Workload};

/// Workload names in presentation order; `BENCHMARK.json` lists the same.
pub const WORKLOADS: [&str; 5] = [
    "paper_grid",
    "manycore",
    "recovery_storm",
    "idle_skip",
    "suite_pipeline",
];

/// Comparison latencies of the Figure 6 sweep.
const SWEEP_LATENCIES: [u64; 5] = [0, 10, 20, 30, 40];

const PAIRED: [ExecutionMode; 2] = [ExecutionMode::Strict, ExecutionMode::Reunion];

/// A timed unit: one cell of a grid (one `measure_cell` call), or, with
/// `cell == None`, a whole grid through the `sim` pipeline: serial runner,
/// report JSON out and back, shard manifest append/load/merge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unit {
    pub grid: usize,
    pub cell: Option<usize>,
}

/// One benchmark workload, built for one seed.
pub struct Workbench {
    pub grids: Vec<ExperimentGrid>,
    pub units: Vec<Unit>,
}

impl Workbench {
    /// Builds workload `name` for `seed`. `smoke` (the `--check` mode)
    /// keeps the first two cells of each grid, and two two-cell sub-grids
    /// of the pipeline workload.
    pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Workbench> {
        let (pipeline, grids) = match name {
            "paper_grid" => (false, vec![paper_grid(seed)]),
            "manycore" => (false, vec![manycore(seed)]),
            "recovery_storm" => (
                false,
                vec![
                    storm_suite(seed),
                    kernel_grid("storm_kernels", &["spin_histogram", "flag_ring"], seed),
                ],
            ),
            "idle_skip" => (
                false,
                vec![
                    idle_em3d(seed),
                    kernel_grid("idle_kernels", &["crc32", "quicksort"], seed),
                ],
            ),
            "suite_pipeline" => {
                let workloads = if smoke {
                    suite()[..1].to_vec()
                } else {
                    suite()
                };
                let lats = &SWEEP_LATENCIES[..if smoke { 2 } else { 5 }];
                let grids = lats
                    .iter()
                    .map(|&lat| pipeline_subgrid(&workloads, lat, seed))
                    .collect();
                (true, grids)
            }
            _ => return None,
        };
        let mut units = Vec::new();
        for (g, grid) in grids.iter().enumerate() {
            if pipeline {
                units.push(Unit {
                    grid: g,
                    cell: None,
                });
            } else {
                let keep = if smoke { 2 } else { grid.cells().len() };
                units.extend((0..grid.cells().len().min(keep)).map(|c| Unit {
                    grid: g,
                    cell: Some(c),
                }));
            }
        }
        Some(Workbench { grids, units })
    }

    /// The cells a unit covers, in grid order.
    pub fn unit_cells(&self, unit: Unit) -> &[Cell] {
        let cells = self.grids[unit.grid].cells();
        match unit.cell {
            Some(c) => &cells[c..=c],
            None => cells,
        }
    }

    /// Every cell of the workload: what `cells_attempted` counts.
    pub fn cells_attempted(&self) -> usize {
        self.units.iter().map(|&u| self.unit_cells(u).len()).sum()
    }

    /// A short stable label for one unit (`fig5/apache/strict/base`).
    pub fn unit_label(&self, unit: Unit) -> String {
        let grid = &self.grids[unit.grid];
        match unit.cell {
            Some(c) => cell_label(grid, &grid.cells()[c]),
            None => grid.id().to_string(),
        }
    }
}

/// `grid/workload/mode/patch` for one cell.
pub fn cell_label(grid: &ExperimentGrid, cell: &Cell) -> String {
    format!(
        "{}/{}/{}/{}",
        grid.id(),
        cell.workload.name(),
        cell.mode,
        cell.patch.label()
    )
}

fn named(names: &[&str]) -> Vec<Workload> {
    names
        .iter()
        .map(|n| Workload::by_name(n).unwrap_or_else(|| panic!("no workload named {n}")))
        .collect()
}

/// Figure 5: the suite under Strict and Reunion on the Table 1 machine at
/// the paper's full sampling profile.
fn paper_grid(seed: u64) -> ExperimentGrid {
    ExperimentGrid::builder("fig5", "benchmark: Figure 5 at the full profile")
        .sample(SampleConfig::full())
        .workloads(suite())
        .modes(&PAIRED)
        .patches(vec![ConfigPatch::new("base").seed(seed)])
        .build()
}

/// The `fig_scaling` base: Table 1 plus a 4-port crossbar and 4-deep bank
/// queues, the contention models that matter beyond 4 pairs.
fn manycore_base(mode: ExecutionMode) -> SystemConfig {
    let cfg = SystemConfig::table1(mode);
    let mem = cfg.mem.clone().with_xbar_ports(4).with_bank_queue_depth(4);
    cfg.with_mem(mem)
}

fn manycore(seed: u64) -> ExperimentGrid {
    let mut patches = Vec::new();
    for pairs in [8usize, 16, 32] {
        for bw in [0u64, 2] {
            patches.push(
                ConfigPatch::new(format!("p{pairs}:bw{bw}"))
                    .logical_processors(pairs)
                    .check_bandwidth(bw)
                    .latency(10)
                    .seed(seed),
            );
        }
    }
    ExperimentGrid::builder("manycore", "benchmark: 8/16/32-pair contended cells")
        .base(manycore_base)
        .sample(SampleConfig::fast().widened(2))
        .workloads(named(&["apache", "moldyn"]))
        .modes(&[ExecutionMode::Reunion])
        .patches(patches)
        .build()
}

/// Table 3 shape: the suite under Reunion with the two weak phantom
/// strengths, where every cell recovers thousands of times.
fn storm_suite(seed: u64) -> ExperimentGrid {
    let patches = [PhantomStrength::Shared, PhantomStrength::Null]
        .iter()
        .map(|&s| ConfigPatch::new(s.to_string()).phantom(s).seed(seed))
        .collect();
    ExperimentGrid::builder("storm_suite", "benchmark: weak-phantom recovery storm")
        .sample(SampleConfig::full())
        .workloads(suite())
        .modes(&[ExecutionMode::Reunion])
        .patches(patches)
        .build()
}

/// Assembly kernels on the 2-LP kernel machine, Strict and Reunion, over a
/// window eight times the full profile's.
fn kernel_grid(id: &str, kernels: &[&str], seed: u64) -> ExperimentGrid {
    ExperimentGrid::builder(id, "benchmark: assembly kernels, widened window")
        .base(SystemConfig::kernel_pair)
        .sample(SampleConfig::full().widened(8))
        .workloads(named(kernels))
        .modes(&PAIRED)
        .patches(vec![ConfigPatch::new("base").seed(seed)])
        .build()
}

/// em3d across the latency sweep: most simulated cycles are skipped and
/// every system construction pokes em3d's half-million-word image.
fn idle_em3d(seed: u64) -> ExperimentGrid {
    ExperimentGrid::builder("idle_em3d", "benchmark: em3d latency sweep")
        .sample(SampleConfig::full())
        .workloads(named(&["em3d"]))
        .modes(&PAIRED)
        .patches(latency_patches(&SWEEP_LATENCIES, seed))
        .build()
}

fn latency_patches(latencies: &[u64], seed: u64) -> Vec<ConfigPatch> {
    latencies
        .iter()
        .map(|&l| ConfigPatch::new(format!("lat={l}")).latency(l).seed(seed))
        .collect()
}

/// One latency point of the Figure 6 sweep at the fast profile: the
/// CI-sized grid the whole `sim` pipeline is timed on.
fn pipeline_subgrid(workloads: &[Workload], latency: u64, seed: u64) -> ExperimentGrid {
    ExperimentGrid::builder(
        format!("fig6_lat{latency}"),
        "benchmark: Figure 6 sub-grid at the fast profile",
    )
    .sample(SampleConfig::fast())
    .workloads(workloads.to_vec())
    .modes(&PAIRED)
    .patches(latency_patches(&[latency], seed))
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_lists_match_the_contract() {
        let cells = |name| Workbench::build(name, 1, false).unwrap().cells_attempted();
        assert_eq!(cells("paper_grid"), 22);
        assert_eq!(cells("manycore"), 12);
        assert_eq!(cells("recovery_storm"), 22 + 4);
        assert_eq!(cells("idle_skip"), 10 + 4);
        assert_eq!(cells("suite_pipeline"), 110);
        assert_eq!(
            Workbench::build("suite_pipeline", 1, false)
                .unwrap()
                .units
                .len(),
            5
        );
        assert!(Workbench::build("nope", 1, false).is_none());
    }

    #[test]
    fn smoke_mode_keeps_two_cells_per_grid() {
        for name in WORKLOADS {
            let w = Workbench::build(name, 1, true).unwrap();
            for &u in &w.units {
                assert!(w.unit_cells(u).len() <= 2, "{name}");
            }
            assert!(w.cells_attempted() <= 4, "{name}");
        }
    }

    #[test]
    fn seed_reaches_every_cell_config_and_nothing_else_changes() {
        for name in WORKLOADS {
            let a = Workbench::build(name, 7, false).unwrap();
            let b = Workbench::build(name, 8, false).unwrap();
            for (ga, gb) in a.grids.iter().zip(&b.grids) {
                for (ca, cb) in ga.cells().iter().zip(gb.cells()) {
                    let (mut x, y) = (ga.cell_config(ca), gb.cell_config(cb));
                    assert_eq!(x.seed, 7);
                    assert_eq!(y.seed, 8);
                    x.seed = 8;
                    assert_eq!(x, y);
                }
            }
        }
    }
}
