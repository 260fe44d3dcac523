//! The retirement oracle's reach.
//!
//! Debug builds re-execute every user instruction a core commits through
//! `reunion_isa::execute` and panic on any difference from the retired
//! state (`crates/cpu/src/oracle.rs`). These cells drive it through every
//! path that produces a retired value: all three execution modes on every
//! generated workload, the assembly kernels, software TLB handlers,
//! sequential consistency, multi-instruction fingerprint intervals,
//! recovery-heavy null phantoms and injected soft errors. The oracle fails
//! a test on the first divergence; each cell then requires that its cores
//! retired user instructions and that the oracle checked every one of them
//! except the soft-error results it is told to expect.

#![cfg(debug_assertions)]

use reunion_core::{CmpSystem, ExecutionMode, SystemConfig};
use reunion_cpu::{Consistency, Core, TlbMode};
use reunion_mem::PhantomStrength;
use reunion_workloads::{kernel_suite, suite, Workload};

/// Cycles each cell runs: thousands of retirements per core, and dozens
/// of recoveries where the cell provokes them.
const CYCLES: u64 = 10_000;

/// Runs `cfg` on `workload` for [`CYCLES`] after `setup` and requires the
/// oracle to have checked every user instruction any core retired, except
/// `flipped`: soft-error results that retired, which it takes unchecked.
/// Returns the system for cell-specific checks.
fn run_checked(
    cfg: &SystemConfig,
    workload: &Workload,
    flipped: u64,
    setup: impl FnOnce(&mut CmpSystem),
) -> CmpSystem {
    let mut sys = CmpSystem::new(cfg, workload);
    setup(&mut sys);
    sys.run(CYCLES);
    let mut cores = Vec::new();
    for lp in 0..sys.logical_processors() {
        match sys.pair_mut(lp) {
            Some(pair) => cores.extend([pair.vocal(), pair.mute()].map(counts)),
            None => cores.push(counts(sys.core_mut(lp).expect("a single core"))),
        }
    }
    let cell = format!(
        "{} {}: (retired, checked) per core {cores:?}",
        workload.name(),
        cfg.mode
    );
    let (retired, checked) = cores.iter().fold((0, 0), |(r, c), &(retired, checked)| {
        (r + retired, c + checked)
    });
    assert!(checked > 0, "{cell}");
    assert_eq!(retired - checked, flipped, "{cell}");
    sys
}

/// A core's retired user instructions and how many the oracle checked.
fn counts(core: &Core) -> (u64, u64) {
    (core.retired_user(), core.oracle_checked())
}

#[test]
fn every_workload_in_every_mode() {
    for workload in suite() {
        for mode in ExecutionMode::ALL {
            run_checked(&SystemConfig::small_test(mode), &workload, 0, |_| {});
        }
    }
}

#[test]
fn every_kernel_under_strict_and_reunion() {
    for workload in kernel_suite() {
        for mode in [ExecutionMode::Strict, ExecutionMode::Reunion] {
            run_checked(&SystemConfig::kernel_pair(mode), &workload, 0, |_| {});
        }
    }
}

#[test]
fn handlers_consistency_intervals_and_recoveries() {
    let reunion = SystemConfig::small_test(ExecutionMode::Reunion);
    let zeus = Workload::by_name("zeus").unwrap();
    let software_tlb = SystemConfig {
        tlb: TlbMode::Software,
        ..reunion.clone()
    };
    let sc = SystemConfig {
        consistency: Consistency::Sc,
        ..reunion.clone()
    };
    let null_phantoms = SystemConfig {
        phantom: PhantomStrength::Null,
        ..reunion.clone()
    };
    for cfg in [software_tlb, sc, reunion.with_fingerprint_interval(8)] {
        run_checked(&cfg, &zeus, 0, |_| {});
    }
    // Null phantoms leave every mute miss incoherent: the cell must have
    // recovered, and retired, again and again.
    let sys = run_checked(&null_phantoms, &zeus, 0, |_| {});
    assert!(sys.window_stats().recoveries > 10, "null phantoms recover");
}

#[test]
fn injected_soft_errors_are_the_one_divergence() {
    let zeus = Workload::by_name("zeus").unwrap();
    // A flip on a vocal and on a mute core: both are detected and
    // recovered, so neither flipped value ever retires.
    let sys = run_checked(
        &SystemConfig::small_test(ExecutionMode::Reunion),
        &zeus,
        0,
        |sys| {
            sys.pair_mut(0)
                .unwrap()
                .vocal_mut()
                .inject_soft_error_at(300, 9);
            sys.pair_mut(1)
                .unwrap()
                .mute_mut()
                .inject_soft_error_at(600, 23);
        },
    );
    assert!(sys.window_stats().mismatches >= 2, "both flips detected");
    // Without a partner the flipped value retires: the oracle takes it
    // as the new state instead of reporting it.
    run_checked(
        &SystemConfig::small_test(ExecutionMode::NonRedundant),
        &zeus,
        1,
        |sys| sys.core_mut(0).unwrap().inject_soft_error_at(300, 9),
    );
}
