//! Dense ↔ skip engine equivalence.
//!
//! The time-skipping engine must be *observationally identical* to dense
//! cycle stepping: every measured counter, every IPC figure, every byte of
//! a `BENCH_<id>.json` report. These tests drive randomized grids of
//! (workload, mode, latency, seed) points through both engines and demand
//! exact equality — plus a nonzero skip count, so the skip engine cannot
//! trivially pass by degenerating into dense stepping.
//!
//! The case stream is seeded by `REUNION_PROP_SEED` (a u64; default below),
//! never by wall-clock time, so failures replay exactly.

use reunion_core::{
    measure, normalized_ipc, Engine, ExecutionMode, Measurement, SampleConfig, SystemConfig,
};
use reunion_kernel::SimRng;
use reunion_workloads::{kernel_suite, suite, Workload};

const DEFAULT_SEED: u64 = 0xE16_16E5;

fn prop_seed() -> u64 {
    std::env::var("REUNION_PROP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// The full deterministic face of a [`Measurement`], floats compared by
/// bit pattern. `skipped_cycles` is deliberately excluded: it is the one
/// field allowed (required, even) to differ between engines.
fn face(m: &Measurement) -> (u64, u64, reunion_core::SystemStats, usize, &'static str) {
    (
        m.ipc.to_bits(),
        m.ipc_ci95.to_bits(),
        m.totals,
        m.windows,
        m.workload,
    )
}

fn random_config(rng: &mut SimRng, mode: ExecutionMode) -> SystemConfig {
    let mut cfg = SystemConfig::small_test(mode);
    cfg.comparison_latency = [0, 10, 20, 40][(rng.next_u64() % 4) as usize];
    cfg.seed = rng.next_u64();
    cfg
}

fn random_workload(rng: &mut SimRng) -> Workload {
    let all = suite();
    let i = (rng.next_u64() % all.len() as u64) as usize;
    all.into_iter().nth(i).expect("index in range")
}

fn sample() -> SampleConfig {
    SampleConfig {
        warmup: 6_000,
        window: 6_000,
        windows: 2,
    }
}

/// Randomized grid: raw measurements agree exactly between engines for
/// redundant and non-redundant configurations alike, and the skip engine
/// actually skips.
#[test]
fn randomized_measurements_are_engine_invariant() {
    let mut rng = SimRng::seed_from(prop_seed());
    let mut total_skipped = 0u64;
    for case in 0..12 {
        let mode = ExecutionMode::ALL[(rng.next_u64() % 3) as usize];
        let workload = random_workload(&mut rng);
        let mut cfg = random_config(&mut rng, mode);

        cfg.engine = Engine::Dense;
        let dense = measure(&cfg, &workload, &sample());
        cfg.engine = Engine::Skip;
        let skip = measure(&cfg, &workload, &sample());

        assert_eq!(
            face(&dense),
            face(&skip),
            "case {case}: {mode} {} lat={} diverged between engines",
            workload.name(),
            cfg.comparison_latency,
        );
        assert_eq!(dense.skipped_cycles, 0, "dense never goes quiescent here");
        total_skipped += skip.skipped_cycles;
    }
    assert!(
        total_skipped > 0,
        "the skip engine never skipped a cycle across the whole grid"
    );
}

/// em3d carries the suite's largest initial image; systems built over the
/// cached workload's shared base image measure exactly what systems built
/// over an uncached workload's private one do, under either engine.
#[test]
fn shared_and_private_base_images_measure_equal() {
    let cached = Workload::by_name("em3d").expect("in suite");
    let uncached = Workload::uncached(cached.spec().clone());
    for engine in [Engine::Dense, Engine::Skip] {
        for mode in [ExecutionMode::NonRedundant, ExecutionMode::Reunion] {
            let cfg = SystemConfig::small_test(mode).with_engine(engine);
            let shared = measure(&cfg, &cached, &sample());
            let private = measure(&cfg, &uncached, &sample());
            assert_eq!(face(&shared), face(&private), "{mode} {engine:?}");
            assert_eq!(shared.skipped_cycles, private.skipped_cycles);
        }
    }
    assert!(cached.cache_population().memory);
    assert!(!uncached.cache_population().memory);
    assert!(*cached.initial_memory() == *uncached.initial_memory());
}

/// Randomized matched pairs: the normalized-IPC path (model and baseline
/// systems, window-by-window ratios) is engine-invariant too.
#[test]
fn randomized_normalized_pairs_are_engine_invariant() {
    let mut rng = SimRng::seed_from(prop_seed() ^ 0x5CA1_AB1E);
    for case in 0..6 {
        let mode = if rng.chance(0.5) {
            ExecutionMode::Reunion
        } else {
            ExecutionMode::Strict
        };
        let workload = random_workload(&mut rng);
        let mut cfg = random_config(&mut rng, mode);

        cfg.engine = Engine::Dense;
        let dense = normalized_ipc(&cfg, &workload, &sample());
        cfg.engine = Engine::Skip;
        let skip = normalized_ipc(&cfg, &workload, &sample());

        assert_eq!(
            dense.normalized_ipc.to_bits(),
            skip.normalized_ipc.to_bits(),
            "case {case}: normalized IPC diverged"
        );
        assert_eq!(dense.ci95.to_bits(), skip.ci95.to_bits());
        assert_eq!(face(&dense.model), face(&skip.model));
        assert_eq!(face(&dense.baseline), face(&skip.baseline));
    }
}

/// The real-code kernel workloads (`asm/`) obey the same invariance
/// contract as the synthetic suite: every measured counter agrees exactly
/// between engines, across modes and comparison latencies.
#[test]
fn kernel_measurements_are_engine_invariant() {
    let mut rng = SimRng::seed_from(prop_seed() ^ 0x6E26_E150);
    let kernels = kernel_suite();
    for case in 0..8 {
        let mode = ExecutionMode::ALL[(rng.next_u64() % 3) as usize];
        let workload = kernels[(rng.next_u64() % kernels.len() as u64) as usize].clone();
        let mut cfg = random_config(&mut rng, mode);

        cfg.engine = Engine::Dense;
        let dense = measure(&cfg, &workload, &sample());
        cfg.engine = Engine::Skip;
        let skip = measure(&cfg, &workload, &sample());

        assert_eq!(
            face(&dense),
            face(&skip),
            "case {case}: {mode} {} lat={} diverged between engines",
            workload.name(),
            cfg.comparison_latency,
        );
    }
}

/// Serializing-heavy configuration (software TLB handlers force frequent
/// full check round trips): the `serializing_stall_cycles` counter — which
/// dense execution accumulates one stalled cycle at a time — survives time
/// skipping exactly.
#[test]
fn serializing_stall_counters_survive_skipping() {
    let workload = Workload::by_name("db2_oltp").expect("suite workload");
    let mut cfg = SystemConfig::small_test(ExecutionMode::Reunion);
    cfg.tlb = reunion_cpu::TlbMode::Software;
    cfg.comparison_latency = 20;

    cfg.engine = Engine::Dense;
    let dense = measure(&cfg, &workload, &sample());
    cfg.engine = Engine::Skip;
    let skip = measure(&cfg, &workload, &sample());

    assert!(
        dense.totals.serializing_stall_cycles > 0,
        "config must exercise serializing stalls"
    );
    assert_eq!(face(&dense), face(&skip));
}

/// The scaling study's contention models — banked-L2 arbitration behind
/// bounded crossbar ports and a shared check bus — keep the engine
/// invariance contract at many-pair machine sizes, up to the directory's
/// 64-L1 limit. Bus grants only happen inside ticked comparison cycles and
/// the arbiter's round-robin cursor only advances on arbitration, so time
/// skipping must not reorder either — nor anything observability records
/// inside a tick (`skip_runs`/`skipped_cycles` describe the engine itself
/// and are blanked before comparing).
#[test]
fn many_pair_contention_is_engine_invariant() {
    use reunion_core::{ObsConfig, ObsReport};
    use reunion_mem::MemConfig;
    fn tick_recorded(m: &Measurement) -> ObsReport {
        let mut obs = m.obs.clone().expect("obs enabled");
        obs.skip_runs = Default::default();
        obs.skipped_cycles = 0;
        obs
    }
    let workload = Workload::by_name("apache").expect("suite workload");
    for pairs in [8usize, 16, 32] {
        let mut cfg = SystemConfig::small_test(ExecutionMode::Reunion)
            .with_logical_processors(pairs)
            .with_check_bandwidth(2)
            .with_comparison_latency(10)
            .with_observability(ObsConfig {
                enabled: true,
                trace_cap: 8,
            })
            .with_mem(
                MemConfig::small()
                    .with_xbar_ports(2)
                    .with_bank_queue_depth(2),
            );

        cfg.engine = Engine::Dense;
        let dense = measure(&cfg, &workload, &sample());
        cfg.engine = Engine::Skip;
        let skip = measure(&cfg, &workload, &sample());

        assert_eq!(
            face(&dense),
            face(&skip),
            "{pairs} pairs under contention diverged between engines"
        );
        assert_eq!(
            tick_recorded(&dense),
            tick_recorded(&skip),
            "{pairs} pairs: obs"
        );
        assert!(!dense.trace.is_empty(), "{pairs} pairs: trace retained");
        assert_eq!(dense.trace, skip.trace, "{pairs} pairs: trace");
        assert!(
            dense.totals.user_instructions > 0,
            "{pairs}-pair machine must make forward progress on a saturated bus"
        );
    }
}

/// The skip engine clips at `run` boundaries, so arbitrary window layouts
/// — including a window cut mid-skip — see identical per-window stats.
#[test]
fn window_clipping_preserves_per_window_stats() {
    use reunion_core::CmpSystem;
    let workload = Workload::by_name("ocean").expect("suite workload");
    let mut cfg = SystemConfig::small_test(ExecutionMode::Reunion);

    let windows = [3_000u64, 123, 7_777, 41, 2_500];
    let mut per_window = Vec::new();
    for engine in [Engine::Dense, Engine::Skip] {
        cfg.engine = engine;
        let mut sys = CmpSystem::new(&cfg, &workload);
        sys.run(5_000);
        let mut stats = Vec::new();
        for w in windows {
            sys.begin_window();
            sys.run(w);
            stats.push(sys.window_stats());
        }
        assert_eq!(sys.now().as_u64(), 5_000 + windows.iter().sum::<u64>());
        per_window.push(stats);
    }
    assert_eq!(per_window[0], per_window[1]);
}

/// The bound is tight where it matters most: a core whose next instruction
/// is serializing sits out the whole drain of its ROB. One core loops over
/// a load that always misses, a `membar` that may only dispatch once that
/// load has retired, and a jump — so nearly every cycle is spent waiting
/// for the drain, and the skip engine must visit nearly none of them. A
/// bound that forgot the drain wait (as it once did) ticks every cycle.
#[test]
fn a_front_end_waiting_for_the_rob_to_drain_is_not_ticked() {
    const SOURCE: &str = "\
.program drain_wait
    li   r1, 0x40000000
next:
    ld   r2, (r1)
    addi r1, r1, 4096        ; a new page and line every time round
    membar
    j    next
";
    let spec = reunion_workloads::WorkloadSpec {
        name: "drain_wait",
        ..kernel_suite()[0].spec().clone()
    };
    let workload = Workload::kernel(spec, SOURCE);
    let cycles = 20_000;
    let run = |engine: Engine| {
        let cfg = SystemConfig::small_test(ExecutionMode::NonRedundant)
            .with_logical_processors(1)
            .with_engine(engine);
        let mut sys = reunion_core::CmpSystem::new(&cfg, &workload);
        sys.run(cycles);
        let core = format!("{:?}", sys.core_mut(0).expect("non-redundant").stats());
        let stats = format!("{:?} {:?} {core}", sys.window_stats(), sys.memory().stats());
        (stats, sys.proc_ticks())
    };
    let (dense_stats, dense_ticks) = run(Engine::Dense);
    let (skip_stats, skip_ticks) = run(Engine::Skip);
    assert_eq!(dense_stats, skip_stats);
    assert_eq!(dense_ticks, cycles, "dense ticks every cycle");
    assert!(
        skip_ticks * 100 < cycles * 15,
        "skip engine ticked {skip_ticks} of {cycles} cycles"
    );
}
