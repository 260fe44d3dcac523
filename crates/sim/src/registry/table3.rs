//! Table 3: input-incoherence events per million instructions for each
//! phantom-request strength, juxtaposed with TLB misses.

use reunion_core::ExecutionMode;
use reunion_mem::PhantomStrength;

use super::fig7a::STRENGTHS;
use crate::{
    rate_with_ci95, workloads, ConfigPatch, ExperimentReport, GridBuilder, Metric, RunOptions,
};

/// How many cycles em3d's widened measured window under global phantoms
/// must cover.
///
/// em3d's incoherence rate under global phantoms sits near the bottom of
/// the paper's 0.2–21 /1M band, below the single-event resolution of the
/// shared profiles (zero events resolve in ~100k measured cycles, and
/// their interval's upper end says little); its first event lands near
/// 25M measured cycles under either profile. The widened window gives it
/// enough retired instructions for that event to resolve inside the band.
/// Its shared and null cells resolve thousands of events in the shared
/// window, so they keep it. The runner sorts cells by estimated cost, so
/// its workers claim the widened cell first.
const EM3D_MEASURED_CYCLES: u64 = 32_000_000;

pub(super) fn axes(grid: GridBuilder, opts: &RunOptions) -> GridBuilder {
    grid.metric(Metric::Raw)
        .sample_override(
            "em3d",
            PhantomStrength::Global.to_string(),
            opts.sample().widened_to_cycles(EM3D_MEASURED_CYCLES),
        )
        .workloads(workloads())
        .modes(&[ExecutionMode::Reunion])
        .patches(
            STRENGTHS
                .iter()
                .map(|&s| ConfigPatch::new(s.to_string()).phantom(s))
                .collect(),
        )
}

pub(super) fn print(report: &ExperimentReport) {
    println!(
        "{:<12} {:>24} {:>24} {:>24} {:>8}",
        "workload", "global", "shared", "null", "tlb/1M"
    );
    let mut sci_global = Vec::new();
    for w in workloads() {
        print!("{:<12}", w.name());
        let mut tlb = 0.0;
        for strength in STRENGTHS {
            let m = report
                .get(w.name(), ExecutionMode::Reunion, &strength.to_string())
                .and_then(|r| r.raw())
                .expect("record for every strength");
            let rate = rate_with_ci95(m.input_incoherence, m.user_instructions);
            print!(" {rate:>24}");
            if strength == PhantomStrength::Global {
                tlb = m.tlb_misses_per_million;
                if w.class() == reunion_workloads::WorkloadClass::Scientific {
                    sci_global.push(m.incoherence_per_million);
                }
            }
        }
        println!(" {tlb:>8.0}");
    }
    println!("{}", "-".repeat(98));
    let sci_avg = sci_global.iter().sum::<f64>() / sci_global.len() as f64;
    println!("scientific average (global phantoms): {sci_avg:.1} /1M  (paper band: 0.2-21)");
    println!("(events /1M instructions [exact Poisson 95 % interval]; no events print as");
    let em3d_mcycles = EM3D_MEASURED_CYCLES / 1_000_000;
    println!(" < the interval's upper end. em3d under global phantoms is measured over a");
    println!(" widened ~{em3d_mcycles}M-cycle window so its rare events resolve.)");
    println!("(paper: global 0.2-21 /1M — orders of magnitude below TLB misses;");
    println!(" shared/null 1.8k-23k /1M, 3-4 orders above global.)");
}
