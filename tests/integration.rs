//! Cross-crate integration tests: whole systems built from the public API.

use reunion_core::{measure, normalized_ipc, ExecutionMode, SampleConfig, SystemConfig};
use reunion_workloads::{suite, Workload, WorkloadClass};

fn quick() -> SampleConfig {
    SampleConfig {
        warmup: 8_000,
        window: 8_000,
        windows: 2,
    }
}

/// Systems built from one cached workload share its base image but not
/// their stores: what one writes stays invisible to the other and to the
/// base.
#[test]
fn systems_sharing_a_base_image_keep_their_stores_private() {
    use reunion_core::CmpSystem;
    use reunion_isa::{Addr, SparseMemory};
    use reunion_workloads::PRIVATE_BASE;

    let em3d = Workload::by_name("em3d").expect("in suite");
    let cfg = SystemConfig::small_test(ExecutionMode::Reunion);
    let mut ran = CmpSystem::new(&cfg, &em3d);
    let idle = CmpSystem::new(&cfg, &em3d);
    let base = em3d.initial_memory();
    let untouched = SparseMemory::over(base.clone());
    ran.run(20_000);

    // Thread 0's private region: where its stores land.
    let region = (0..em3d.spec().private_bytes / 8).map(|i| Addr::new(PRIVATE_BASE + i * 8));
    let mut stored = 0;
    for addr in region {
        let initial = untouched.peek(addr);
        assert_eq!(idle.memory().peek_coherent(addr), initial, "{addr}");
        stored += usize::from(ran.memory().peek_coherent(addr) != initial);
    }
    assert!(stored > 0, "the system that ran must have stored something");
    assert!(
        *base == *Workload::uncached(em3d.spec().clone()).initial_memory(),
        "the shared base must hold exactly the initial words"
    );
}

#[test]
fn every_workload_runs_under_every_mode() {
    for workload in suite() {
        for mode in ExecutionMode::ALL {
            let cfg = SystemConfig::small_test(mode);
            let m = measure(&cfg, &workload, &quick());
            assert!(
                m.ipc > 0.01,
                "{} under {mode} made no progress (ipc {})",
                workload.name(),
                m.ipc
            );
            assert_eq!(
                m.totals.failures,
                0,
                "{} under {mode} reported failures without injected errors",
                workload.name()
            );
        }
    }
}

#[test]
fn strict_never_observes_input_incoherence() {
    for workload in suite() {
        let cfg = SystemConfig::small_test(ExecutionMode::Strict);
        let m = measure(&cfg, &workload, &quick());
        assert_eq!(
            m.totals.mismatches,
            0,
            "{}: strict input replication is immune to incoherence",
            workload.name()
        );
    }
}

#[test]
fn redundant_execution_never_beats_the_baseline_by_much() {
    // Redundancy costs performance; allow a little sampling noise.
    for name in ["apache", "moldyn", "db2_dss_q2"] {
        let workload = Workload::by_name(name).unwrap();
        let n = normalized_ipc(
            &SystemConfig::small_test(ExecutionMode::Reunion),
            &workload,
            &quick(),
        );
        assert!(
            n.normalized_ipc < 1.10,
            "{name}: reunion normalized {:.3} implausibly above baseline",
            n.normalized_ipc
        );
        assert!(
            n.normalized_ipc > 0.25,
            "{name}: reunion normalized {:.3} implausibly slow",
            n.normalized_ipc
        );
    }
}

#[test]
fn comparison_latency_monotonically_hurts_strict() {
    let workload = Workload::by_name("db2_oltp").unwrap();
    let mut at_zero = SystemConfig::small_test(ExecutionMode::Strict);
    at_zero.comparison_latency = 0;
    let mut at_forty = at_zero.clone();
    at_forty.comparison_latency = 40;
    let fast = normalized_ipc(&at_zero, &workload, &quick());
    let slow = normalized_ipc(&at_forty, &workload, &quick());
    assert!(
        fast.normalized_ipc >= slow.normalized_ipc - 0.03,
        "latency 0 ({:.3}) must not lose to latency 40 ({:.3})",
        fast.normalized_ipc,
        slow.normalized_ipc
    );
}

#[test]
fn weaker_phantom_strengths_increase_incoherence() {
    use reunion_mem::PhantomStrength;
    let workload = Workload::by_name("db2_oltp").unwrap();
    let mut rates = Vec::new();
    for strength in PhantomStrength::ALL {
        let mut cfg = SystemConfig::small_test(ExecutionMode::Reunion);
        cfg.phantom = strength;
        let m = measure(&cfg, &workload, &quick());
        rates.push((strength, m.incoherence_per_million()));
    }
    // ALL is ordered weakest (Null) to strongest (Global).
    assert!(
        rates[0].1 >= rates[2].1,
        "null ({:.1}) must be at least as incoherent as global ({:.1})",
        rates[0].1,
        rates[2].1
    );
    assert!(
        rates[0].1 > 100.0,
        "null phantom must cause frequent incoherence, got {:.1}/1M",
        rates[0].1
    );
}

#[test]
fn software_tlb_serializes_more_than_hardware() {
    use reunion_cpu::TlbMode;
    let workload = Workload::by_name("oracle_oltp").unwrap();
    let mut hw = SystemConfig::small_test(ExecutionMode::Reunion);
    hw.comparison_latency = 40;
    let mut sw = hw.clone();
    sw.tlb = TlbMode::Software;
    let hw_r = normalized_ipc(&hw, &workload, &quick());
    let sw_r = normalized_ipc(&sw, &workload, &quick());
    assert!(
        sw_r.normalized_ipc <= hw_r.normalized_ipc + 0.02,
        "software TLB ({:.3}) must not outperform hardware TLB ({:.3})",
        sw_r.normalized_ipc,
        hw_r.normalized_ipc
    );
}

#[test]
fn sequential_consistency_is_expensive_under_checking() {
    use reunion_cpu::Consistency;
    let workload = Workload::by_name("apache").unwrap();
    let mut tso = SystemConfig::small_test(ExecutionMode::Reunion);
    tso.comparison_latency = 40;
    let mut sc = tso.clone();
    sc.consistency = Consistency::Sc;
    let tso_r = normalized_ipc(&tso, &workload, &quick());
    let sc_r = normalized_ipc(&sc, &workload, &quick());
    assert!(
        sc_r.normalized_ipc < tso_r.normalized_ipc,
        "SC ({:.3}) must lose to TSO ({:.3}) at 40-cycle latency",
        sc_r.normalized_ipc,
        tso_r.normalized_ipc
    );
}

#[test]
fn fingerprint_interval_one_vs_fifty_is_close() {
    let workload = Workload::by_name("sparse").unwrap();
    let mut one = SystemConfig::small_test(ExecutionMode::Reunion);
    one.fingerprint_interval = 1;
    let mut fifty = one.clone();
    fifty.fingerprint_interval = 50;
    let r1 = normalized_ipc(&one, &workload, &quick());
    let r50 = normalized_ipc(&fifty, &workload, &quick());
    assert!(
        (r1.normalized_ipc - r50.normalized_ipc).abs() < 0.15,
        "interval 1 ({:.3}) vs 50 ({:.3}) should be close (§4.3)",
        r1.normalized_ipc,
        r50.normalized_ipc
    );
}

#[test]
fn class_composition_is_stable() {
    let all = suite();
    assert_eq!(all.len(), 11);
    assert_eq!(
        all.iter()
            .filter(|w| w.class() == WorkloadClass::Scientific)
            .count(),
        4
    );
}
