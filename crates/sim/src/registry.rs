//! The experiment registry: one table row per figure/table grid.
//!
//! `reunion-bench run <id>` looks ids up here, so an experiment exists
//! exactly once — its id (which names `BENCH_<id>.json` and the gated file
//! under `baselines/`), its caption, how its grid is built and how its
//! table is printed.

use reunion_core::ExecutionMode;

use crate::{
    banner, commercial_workloads, keyed_latency_label, latency_label, run_and_emit, ConfigPatch,
    ExperimentGrid, ExperimentReport, GridBuilder, RunOptions, SWEEP_LATENCIES,
};

mod fig5;
mod fig6;
mod fig7a;
mod fig7b;
mod interval_ablation;
mod kernels;
mod sc_ablation;
mod scaling;
mod table2;
mod table3;

/// One experiment of the evaluation.
pub(crate) struct Experiment {
    /// Grid identifier: names `BENCH_<id>.json` and the `run <id>` argument.
    pub(crate) id: &'static str,
    /// What the paper (or this repo) calls it, for the banner.
    pub(crate) title: &'static str,
    /// One-line caption, printed in the banner and recorded in the report.
    pub(crate) caption: &'static str,
    /// Declares the grid's axes on a builder that already carries the id,
    /// the caption, the run's engine/observability overlay and its
    /// profile's sampling parameters.
    axes: fn(GridBuilder, &RunOptions) -> GridBuilder,
    /// Prints the experiment's table from a complete report.
    print: fn(&ExperimentReport),
}

/// Every experiment, in presentation order.
pub(crate) static EXPERIMENTS: [Experiment; 10] = [
    Experiment {
        id: "fig5",
        title: "Figure 5",
        caption: "Normalized IPC of Strict and Reunion (10-cycle comparison latency)",
        axes: fig5::axes,
        print: fig5::print,
    },
    Experiment {
        id: "fig6",
        title: "Figure 6",
        caption: "Strict and Reunion vs comparison latency (normalized IPC)",
        axes: fig6::axes,
        print: fig6::print,
    },
    Experiment {
        id: "fig7a",
        title: "Figure 7(a)",
        caption: "Reunion normalized IPC per phantom strength (10-cycle latency)",
        axes: fig7a::axes,
        print: fig7a::print,
    },
    Experiment {
        id: "fig7b",
        title: "Figure 7(b)",
        caption: "Commercial average: hardware vs software-managed TLB (Reunion)",
        axes: fig7b::axes,
        print: fig7b::print,
    },
    Experiment {
        id: "table2",
        title: "Table 2",
        caption: "Application parameters (synthetic suite)",
        axes: table2::axes,
        print: table2::print,
    },
    Experiment {
        id: "table3",
        title: "Table 3",
        caption: "Input incoherence per 1M instructions by phantom strength; TLB misses",
        axes: table3::axes,
        print: table3::print,
    },
    Experiment {
        id: "interval_ablation",
        title: "Fingerprint-interval ablation (§4.3)",
        caption: "Reunion normalized IPC vs fingerprint interval (10-cycle latency)",
        axes: interval_ablation::axes,
        print: interval_ablation::print,
    },
    Experiment {
        id: "sc_ablation",
        title: "SC ablation (§5.5)",
        caption: "Reunion commercial average under TSO vs sequential consistency",
        axes: sc_ablation::axes,
        print: sc_ablation::print,
    },
    Experiment {
        id: "kernels",
        title: "Kernel suite",
        caption: "Normalized IPC of Strict and Reunion on the real-code kernel suite",
        axes: kernels::axes,
        print: kernels::print,
    },
    Experiment {
        id: "scaling",
        title: "Scaling study",
        caption: "Reunion normalized IPC vs pair count, check bandwidth and latency",
        axes: scaling::axes,
        print: scaling::print,
    },
];

/// Every registered id, space-separated, for usage messages.
pub(crate) fn ids() -> String {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    ids.join(" ")
}

/// The experiment registered under `id`, if any.
pub(crate) fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

impl Experiment {
    /// The experiment's grid under the resolved run options.
    pub(crate) fn grid(&self, opts: &RunOptions) -> ExperimentGrid {
        let builder = ExperimentGrid::builder(self.id, self.caption)
            .run_options(opts)
            .sample(opts.sample());
        (self.axes)(builder, opts).build()
    }

    /// Runs the experiment end to end: banner, grid, `BENCH_<id>.json`
    /// under `opts.out_dir`, and the printed table.
    pub(crate) fn run(&self, opts: &RunOptions) {
        banner(self.title, self.caption);
        (self.print)(&run_and_emit(&self.grid(opts), opts));
    }
}

/// A comparison-latency sweep with a second, keyed axis (Figure 7(b)'s TLB
/// model, the SC ablation's consistency model): the commercial workloads
/// under Reunion, one patch per row and [`SWEEP_LATENCIES`] point, printed
/// as one row of commercial averages per key. The two experiments differ
/// only in this data.
struct KeyedSweep<T: 'static> {
    /// Per row: the key in its patch labels (`"sw:lat=10"`), the printed
    /// row label and the value its patches set.
    rows: &'static [(&'static str, &'static str, T)],
    /// Sets a row's value on a patch.
    set: fn(ConfigPatch, T) -> ConfigPatch,
    /// The first column's header.
    header: &'static str,
    /// The first column's width.
    width: usize,
    /// The paper's reading, printed under the table one line each.
    note: &'static [&'static str],
}

impl<T: Copy> KeyedSweep<T> {
    fn axes(&self, grid: GridBuilder) -> GridBuilder {
        let mut patches = Vec::new();
        for &(key, _, value) in self.rows {
            for &latency in &SWEEP_LATENCIES {
                let patch = ConfigPatch::new(keyed_latency_label(key, latency));
                patches.push((self.set)(patch, value).latency(latency));
            }
        }
        grid.workloads(commercial_workloads())
            .modes(&[ExecutionMode::Reunion])
            .patches(patches)
    }

    fn print(&self, report: &ExperimentReport) {
        let width = self.width;
        print!("{:<width$}", self.header);
        for &latency in &SWEEP_LATENCIES {
            print!(" {:>8}", latency_label(latency));
        }
        println!();
        for &(key, label, _) in self.rows {
            print!("{label:<width$}");
            for &latency in &SWEEP_LATENCIES {
                let avg = report.mean_normalized_where(
                    ExecutionMode::Reunion,
                    &keyed_latency_label(key, latency),
                    |c| c.is_commercial(),
                );
                print!(" {avg:>8.3}");
            }
            println!();
        }
        println!("--------------------------------------------------------------");
        for line in self.note {
            println!("{line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use reunion_core::Profile;

    #[test]
    fn every_row_builds_the_grid_it_names() {
        let opts = RunOptions {
            profile: Profile::Fast,
            ..RunOptions::default()
        };
        for e in &EXPERIMENTS {
            let grid = e.grid(&opts);
            assert_eq!(grid.id(), e.id);
            assert_eq!(grid.caption(), e.caption);
            assert_eq!(grid.sample(), &opts.sample());
            assert_eq!(find(e.id).unwrap().id, e.id);
        }
        assert!(find("fig_kernels").is_none(), "not a registry id");
        assert!(ids().contains("kernels") && ids().contains("scaling"));
    }

    /// A figure without a gated baseline, or a baseline without a figure,
    /// fails here rather than in CI's regression gate.
    #[test]
    fn ids_are_exactly_the_gated_baselines() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines");
        let gated: BTreeSet<String> = std::fs::read_dir(dir)
            .expect("baselines/ is checked in")
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter_map(|name| {
                let id = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
                Some(id.to_string())
            })
            .collect();
        let registered: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.id.to_string()).collect();
        assert_eq!(registered.len(), EXPERIMENTS.len(), "ids are unique");
        assert_eq!(registered, gated);
    }
}
