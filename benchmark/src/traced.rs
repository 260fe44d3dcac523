//! The traced round: the benchmark's own copy of the matched-pair window
//! loop (`reunion_core::normalized_ipc`), written against the public
//! `CmpSystem` API so that a span can sit at every layer boundary and the
//! layers' own counters can be read where the work happens.
//!
//! The copy must stay observationally identical to the original: every
//! traced cell's record is compared with `measure_cell`'s, and the run
//! fails on any difference.

use std::path::Path;

use reunion_core::{
    CmpSystem, ExecutionMode, Measurement, NormalizedResult, SampleConfig, SystemStats,
};
use reunion_kernel::stats::RunningStats;
use reunion_sim::{Cell, ExperimentGrid, RunRecord};

use crate::grids::{cell_label, Unit, Workbench};
use crate::measure::{pass_with, pipeline_tail, record_of, report_of, Pass};
use crate::trace::{Tracer, NO_CELL};

/// Counters read from the simulated layers at window boundaries, summed
/// over both systems of every cell. Simulated quantities: they repeat
/// exactly for a given seed and commit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_misses: u64,
    pub phantom_requests: u64,
    pub xbar_port_waits: u64,
    pub bank_queue_stalls: u64,
    pub retired_total: u64,
    pub rollbacks: u64,
    pub intervals: u64,
    pub serializing_stall_cycles: u64,
    pub recoveries: u64,
    pub input_incoherence: u64,
    pub sync_requests: u64,
    pub check_bus_messages: u64,
    pub check_bus_wait_cycles: u64,
    pub skipped_cycles: u64,
    /// Warm-up plus window cycles of every system simulated.
    pub simulated_cycles: u64,
    /// Warm-up cycles alone.
    pub warmup_cycles: u64,
    /// Window cycles by mode: non-redundant, strict, reunion.
    pub window_cycles: [u64; 3],
}

/// Index into [`SimCounts::window_cycles`].
pub fn mode_index(mode: ExecutionMode) -> usize {
    match mode {
        ExecutionMode::NonRedundant => 0,
        ExecutionMode::Strict => 1,
        ExecutionMode::Reunion => 2,
    }
}

/// Span tag for a mode's `core.run_window` spans.
pub fn mode_tag(mode: ExecutionMode) -> &'static str {
    ["non-redundant", "strict", "reunion"][mode_index(mode)]
}

/// What the traced loop saw of one cell, for the per-cell table.
#[derive(Clone, Debug)]
pub struct CellRow {
    pub label: String,
    /// Host nanoseconds per simulated cycle of the model system's windows.
    pub model_window_ns_per_cycle: f64,
    pub recoveries: u64,
    /// Share of the model system's cycles the engine never ticked.
    pub skipped_share: f64,
}

/// The result of one traced pass.
pub struct TracedPass {
    pub pass: Pass,
    pub tracer: Tracer,
    pub counts: SimCounts,
    pub cells: Vec<CellRow>,
}

impl SimCounts {
    /// Adds the window-relative counters of one system (valid between a
    /// `begin_window` and the next).
    fn absorb_window(&mut self, sys: &mut CmpSystem) {
        let mem = sys.memory().stats();
        self.l1_hits += mem.l1_hits.value();
        self.l1_misses += mem.l1_misses.value();
        self.l2_misses += mem.l2_misses.value();
        self.phantom_requests += mem.phantom_requests.value();
        self.xbar_port_waits += mem.xbar_port_waits.value();
        self.bank_queue_stalls += mem.bank_queue_stalls.value();
        for lp in 0..sys.logical_processors() {
            if let Some(pair) = sys.pair_mut(lp) {
                let stats = pair.stats();
                self.recoveries += stats.recoveries.value();
                self.input_incoherence += stats.input_incoherence.value();
                self.sync_requests += stats.sync_requests.value();
                for core in [pair.vocal(), pair.mute()] {
                    self.absorb_core(core.stats());
                }
            } else if let Some(core) = sys.core_mut(lp) {
                self.absorb_core(core.stats());
            }
        }
    }

    fn absorb_core(&mut self, stats: &reunion_cpu::CoreStats) {
        self.retired_total += stats.retired_total.value();
        self.rollbacks += stats.rollbacks.value();
        self.intervals += stats.intervals.value();
        self.serializing_stall_cycles += stats.serializing_stall_cycles.value();
    }
}

/// Mirrors `reunion_core`'s private window accumulation, field for field.
fn accumulate(into: &mut SystemStats, w: &SystemStats) {
    into.user_instructions += w.user_instructions;
    into.cycles += w.cycles;
    into.mismatches += w.mismatches;
    into.input_incoherence += w.input_incoherence;
    into.recoveries += w.recoveries;
    into.phase2 += w.phase2;
    into.failures += w.failures;
    into.sync_requests += w.sync_requests;
    into.tlb_misses += w.tlb_misses;
    into.phantom_garbage_fills += w.phantom_garbage_fills;
    into.serializing_stall_cycles += w.serializing_stall_cycles;
    into.reexec_penalty_cycles += w.reexec_penalty_cycles;
    into.peak_check_events = into.peak_check_events.max(w.peak_check_events);
    into.peak_store_chain = into.peak_store_chain.max(w.peak_store_chain);
    into.store_chain_spills += w.store_chain_spills;
}

fn measurement(
    workload: &'static str,
    ipc: &RunningStats,
    totals: SystemStats,
    sample: &SampleConfig,
    sys: &CmpSystem,
) -> Measurement {
    Measurement {
        workload,
        ipc: ipc.mean(),
        ipc_ci95: ipc.ci95_half_width(),
        totals,
        windows: sample.windows,
        skipped_cycles: sys.skipped_cycles(),
        obs: None,
        trace: Vec::new(),
    }
}

/// One cell through the traced window loop.
fn traced_cell(
    grid: &ExperimentGrid,
    cell: &Cell,
    cell_id: u32,
    parent: Option<u32>,
    out: &mut TracedPass,
) -> RunRecord {
    let sample = *grid.cell_sample(cell);
    let model_cfg = grid.cell_config(cell);
    let mut base_cfg = model_cfg.clone();
    base_cfg.mode = ExecutionMode::NonRedundant;
    let workload = cell.workload.name();

    let t = &mut out.tracer;
    let root = t.open("cell", "", parent, cell_id);

    let s = t.open("core.system_new", "", Some(root), cell_id);
    let mut model_sys = CmpSystem::new(&model_cfg, &cell.workload);
    let mut base_sys = CmpSystem::new(&base_cfg, &cell.workload);
    t.close(s);

    let s = t.open("core.run_warmup", "", Some(root), cell_id);
    model_sys.run(sample.warmup);
    base_sys.run(sample.warmup);
    t.close(s);

    let mut ratios = RunningStats::new();
    let mut model_ipc = RunningStats::new();
    let mut base_ipc = RunningStats::new();
    let mut model_totals = SystemStats::default();
    let mut base_totals = SystemStats::default();
    let mut model_window_ns = 0;
    let mut model_recoveries = 0;

    for _ in 0..sample.windows {
        model_sys.begin_window();
        base_sys.begin_window();

        let s = t.open(
            "core.run_window",
            mode_tag(model_cfg.mode),
            Some(root),
            cell_id,
        );
        model_sys.run(sample.window);
        t.close(s);
        model_window_ns += t.spans()[s as usize].duration_ns();

        let s = t.open(
            "core.run_window",
            mode_tag(base_cfg.mode),
            Some(root),
            cell_id,
        );
        base_sys.run(sample.window);
        t.close(s);

        let s = t.open("core.window_stats", "", Some(root), cell_id);
        let mw = model_sys.window_stats();
        let bw = base_sys.window_stats();
        out.counts.absorb_window(&mut model_sys);
        out.counts.absorb_window(&mut base_sys);
        t.close(s);

        if bw.ipc() > 0.0 {
            ratios.push(mw.ipc() / bw.ipc());
        }
        model_ipc.push(mw.ipc());
        base_ipc.push(bw.ipc());
        accumulate(&mut model_totals, &mw);
        accumulate(&mut base_totals, &bw);
        model_recoveries += mw.recoveries;
    }

    let s = t.open("sim.record_emit", "", Some(root), cell_id);
    let result = NormalizedResult {
        workload,
        normalized_ipc: ratios.mean(),
        ci95: ratios.ci95_half_width(),
        model: measurement(workload, &model_ipc, model_totals, &sample, &model_sys),
        baseline: measurement(workload, &base_ipc, base_totals, &sample, &base_sys),
    };
    let record = record_of(cell, &result);
    t.close(s);

    let window_cycles = sample.window * sample.windows as u64;
    let per_system = sample.warmup + window_cycles;
    let c = &mut out.counts;
    c.check_bus_messages += model_sys.check_bus().messages();
    c.check_bus_wait_cycles += model_sys.check_bus().wait_cycles();
    c.skipped_cycles += model_sys.skipped_cycles() + base_sys.skipped_cycles();
    c.simulated_cycles += 2 * per_system;
    c.warmup_cycles += 2 * sample.warmup;
    c.window_cycles[mode_index(model_cfg.mode)] += window_cycles;
    c.window_cycles[mode_index(base_cfg.mode)] += window_cycles;
    out.cells.push(CellRow {
        label: cell_label(grid, cell),
        model_window_ns_per_cycle: model_window_ns as f64 / window_cycles.max(1) as f64,
        recoveries: model_recoveries,
        skipped_share: model_sys.skipped_cycles() as f64 / per_system as f64,
    });

    // The systems are dropped inside the root span: teardown of a
    // half-million-word memory image is part of what a cell costs.
    drop(model_sys);
    drop(base_sys);
    out.tracer.close(root);
    record
}

/// One traced pass over every unit. Pipeline units trace each cell, then
/// every stage of the `sim` tail, under one `sim.pipeline` root.
pub fn traced_pass(bench: &Workbench, out_dir: &Path) -> TracedPass {
    let mut out = TracedPass {
        pass: Pass {
            seconds: Vec::new(),
            records: Vec::new(),
        },
        tracer: Tracer::new(),
        counts: SimCounts::default(),
        cells: Vec::new(),
    };
    let mut next_cell = 0u32;
    let pass = pass_with(bench, |unit: Unit| {
        let grid = &bench.grids[unit.grid];
        let root = unit
            .cell
            .is_none()
            .then(|| out.tracer.open("sim.pipeline", "", None, NO_CELL));
        let mut records = Vec::new();
        for cell in bench.unit_cells(unit) {
            records.push(traced_cell(grid, cell, next_cell, root, &mut out));
            next_cell += 1;
        }
        let Some(root) = root else {
            return Ok(records);
        };
        let report = report_of(grid, records);
        let tail = pipeline_tail(grid, &report, out_dir, &mut |name, f| {
            let s = out.tracer.open(name, "", Some(root), NO_CELL);
            f();
            out.tracer.close(s);
        });
        out.tracer.close(root);
        tail.map(|()| report.records)
    });
    out.pass = pass;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::quiet_pass;
    use crate::trace::self_times;

    /// The property the whole traced round rests on, at smoke size: the
    /// copied loop reproduces `measure_cell` bit for bit, and its spans
    /// nest so that self times sum to the roots.
    #[test]
    fn traced_loop_reproduces_measure_cell() {
        let dir = std::env::temp_dir().join(format!("reunion-benchmark-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["paper_grid", "suite_pipeline"] {
            let bench = Workbench::build(name, 3, true).unwrap();
            let quiet = quiet_pass(&bench, &dir);
            let traced = traced_pass(&bench, &dir);
            assert_eq!(quiet.records, traced.pass.records, "{name}");
            assert_eq!(traced.cells.len(), bench.cells_attempted());

            let spans = traced.tracer.spans();
            let roots: u64 = spans
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|s| s.duration_ns())
                .sum();
            assert_eq!(self_times(spans).iter().sum::<u64>(), roots, "{name}");
            assert!(traced.counts.retired_total > 0 && traced.counts.l1_hits > 0);
            assert_eq!(
                traced.counts.window_cycles.iter().sum::<u64>() + traced.counts.warmup_cycles,
                traced.counts.simulated_cycles
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
