//! End-to-end tests of the Reunion execution model's correctness claims:
//! Lemma 1 (incoherence alone cannot produce unsafe state), Lemma 2
//! (forward progress), and the failure semantics of Figure 4.

use std::sync::Arc;

use reunion_core::{CheckBus, CmpSystem, ExecutionMode, PairDriver, RecoveryPhase, SystemConfig};
use reunion_cpu::{Core, CoreConfig, Role};
use reunion_isa::{Addr, AluOp, Instruction as I, Program, RegId};
use reunion_kernel::Cycle;
use reunion_mem::{MemConfig, MemorySystem, Owner};
use reunion_workloads::Workload;

fn r(i: u8) -> RegId {
    RegId::new(i)
}

/// Lemma 1: with races but no soft errors, the vocal's retired state always
/// equals what a sequentially-executed golden model would produce given the
/// same observed load values — operationally, the pair's two retired states
/// always agree after recovery and no failure is ever declared.
#[test]
fn incoherence_alone_never_produces_unsafe_state() {
    let program = Arc::new(
        Program::new(
            "racy",
            vec![
                I::load_imm(r(1), 0x9000),
                I::load(r(2), r(1), 0),
                I::alu(AluOp::Xor, r(3), r(3), r(2)),
                I::load(r(4), r(1), 64),
                I::alu(AluOp::Add, r(3), r(3), r(4)),
                I::jump(1),
            ],
        )
        .unwrap(),
    );
    let mut mem = MemorySystem::new(MemConfig::small());
    let vl1 = mem.register_l1(Owner::vocal(0));
    let ml1 = mem.register_l1(Owner::mute(0));
    let wl1 = mem.register_l1(Owner::vocal(1));
    let cfg = CoreConfig::for_role(Role::Reunion);
    let vocal = Core::new(cfg.clone(), program.clone(), vl1, 3);
    let mute = Core::new(cfg, program, ml1, 3);
    let mut pair = PairDriver::new(vocal, mute);
    let mut bus = CheckBus::new(0);

    for now in 0..80_000u64 {
        if now % 421 == 0 {
            mem.drain_store(Cycle::new(now), wl1, Addr::new(0x9000), now);
        }
        if now % 677 == 0 {
            mem.drain_store(Cycle::new(now), wl1, Addr::new(0x9040), now * 3);
        }
        pair.tick(Cycle::new(now), &mut mem, &mut bus);
    }

    assert!(
        pair.stats().mismatches.value() > 0,
        "races must be observed"
    );
    assert_eq!(pair.stats().failures.value(), 0, "Lemma 1: no unsafe state");
    assert_eq!(
        pair.vocal().arch_state().regs,
        pair.mute().arch_state().regs,
        "pair safe states agree after every recovery"
    );
}

/// Lemma 2: the re-execution protocol makes forward progress even when the
/// incoherent condition persists in the mute hierarchy (here: a permanently
/// hot racing line that the mute keeps re-caching).
#[test]
fn reexecution_protocol_guarantees_forward_progress() {
    let program = Arc::new(
        Program::new(
            "hot",
            vec![
                I::load_imm(r(1), 0xA000),
                I::load(r(2), r(1), 0),
                I::jump(1),
            ],
        )
        .unwrap(),
    );
    let mut mem = MemorySystem::new(MemConfig::small());
    let vl1 = mem.register_l1(Owner::vocal(0));
    let ml1 = mem.register_l1(Owner::mute(0));
    let wl1 = mem.register_l1(Owner::vocal(1));
    let cfg = CoreConfig::for_role(Role::Reunion);
    let vocal = Core::new(cfg.clone(), program.clone(), vl1, 11);
    let mute = Core::new(cfg, program, ml1, 11);
    let mut pair = PairDriver::new(vocal, mute);
    let mut bus = CheckBus::new(0);

    let mut last_retired = 0;
    for now in 0..120_000u64 {
        // Write the line aggressively: every 150 cycles.
        if now % 150 == 75 {
            mem.drain_store(Cycle::new(now), wl1, Addr::new(0xA000), now);
        }
        pair.tick(Cycle::new(now), &mut mem, &mut bus);
        if now % 20_000 == 19_999 {
            let retired = pair.retired_user();
            assert!(
                retired > last_retired,
                "no forward progress between cycle {} and {}",
                now - 20_000,
                now
            );
            last_retired = retired;
        }
    }
    assert!(pair.stats().recoveries.value() > 10);
    assert_eq!(pair.stats().failures.value(), 0);
}

/// Figure 4, right branch: when phase-1 re-execution cannot reconcile the
/// pair (divergent retired state, as after fingerprint aliasing), phase 2
/// copies the vocal ARF and recovers.
#[test]
fn phase_two_repairs_retired_divergence() {
    let program = Arc::new(
        Program::new(
            "ph2",
            vec![
                I::load_imm(r(1), 0xB000),
                I::load(r(2), r(1), 0),
                I::alu(AluOp::Add, r(3), r(3), r(2)),
                I::jump(1),
            ],
        )
        .unwrap(),
    );
    let mut mem = MemorySystem::new(MemConfig::small());
    let vl1 = mem.register_l1(Owner::vocal(0));
    let ml1 = mem.register_l1(Owner::mute(0));
    let cfg = CoreConfig::for_role(Role::Reunion);
    let vocal = Core::new(cfg.clone(), program.clone(), vl1, 13);
    let mute = Core::new(cfg, program, ml1, 13);
    let mut pair = PairDriver::new(vocal, mute);
    let mut bus = CheckBus::new(0);

    for now in 0..3_000u64 {
        pair.tick(Cycle::new(now), &mut mem, &mut bus);
    }
    // Simulate aliasing having let divergent state retire: the mute's load
    // base register now points somewhere else entirely.
    let mut corrupted = pair.mute().arch_state().clone();
    corrupted.regs.write(r(1), 0xB100);
    pair.mute_mut().copy_arch_state_from(&corrupted);

    for now in 3_000..60_000u64 {
        pair.tick(Cycle::new(now), &mut mem, &mut bus);
    }
    assert!(pair.stats().phase2_recoveries.value() >= 1);
    assert_eq!(pair.stats().failures.value(), 0);
    assert_eq!(pair.phase(), RecoveryPhase::Normal);
    assert_eq!(
        pair.vocal().arch_state().regs.read(r(1)),
        pair.mute().arch_state().regs.read(r(1)),
        "phase 2 must restore agreement"
    );
}

/// Soft errors injected through the public system API are detected and
/// recovered on real workloads, and never corrupt the vocal's architecture.
#[test]
fn soft_errors_on_workloads_are_recovered() {
    let workload = Workload::by_name("zeus").unwrap();
    let cfg = SystemConfig::small_test(ExecutionMode::Reunion);
    let mut sys = CmpSystem::new(&cfg, &workload);
    sys.run(5_000);
    sys.pair_mut(0)
        .unwrap()
        .vocal_mut()
        .inject_soft_error_at(1_000, 9);
    sys.pair_mut(1)
        .unwrap()
        .mute_mut()
        .inject_soft_error_at(2_000, 23);
    sys.run(50_000);
    let stats = sys.window_stats();
    assert!(
        stats.mismatches >= 2,
        "both errors detected, got {}",
        stats.mismatches
    );
    assert_eq!(stats.failures, 0);
    // The two halves of a pair drift apart by up to the comparison latency
    // during normal execution; every recovery (and every drained
    // serializing boundary) re-lands them on identical safe states. Poll
    // for that recurring agreement point instead of asserting at an
    // arbitrary cycle.
    for lp in 0..2 {
        let mut agreed = false;
        for _ in 0..200 {
            let pair = sys.pair_mut(lp).unwrap();
            if pair.vocal().arch_state().regs == pair.mute().arch_state().regs {
                agreed = true;
                break;
            }
            sys.run(250);
        }
        assert!(
            agreed,
            "pair {lp} safe states never re-agree after recovery"
        );
    }
}

/// External interrupts are serviced at the same instruction on both cores:
/// fingerprints keep matching and no recovery is triggered.
///
/// Uses a race-free custom workload (all sharing weights zeroed) so any
/// mismatch is attributable to interrupt servicing rather than to the
/// suite's deliberately racy sharing model.
#[test]
fn interrupts_replicate_cleanly_across_the_pair() {
    let base = Workload::by_name("ocean").unwrap();
    let mut spec = base.spec().clone();
    spec.lock_weight = 0.0;
    spec.sharing.hot_write_fraction = 0.0;
    spec.sharing.migratory_weight = 0.0;
    spec.sharing.producer_consumer_weight = 0.0;
    spec.sharing.lock_contention = 0.0;
    spec.store_fraction = 0.0;
    let workload = Workload::from_spec(spec);
    let cfg = SystemConfig::small_test(ExecutionMode::Reunion);
    let mut sys = CmpSystem::new(&cfg, &workload);
    sys.run(3_000);
    let before = sys.window_stats().mismatches;
    for _ in 0..5 {
        sys.deliver_interrupt(0);
        sys.run(4_000);
    }
    let after = sys.window_stats();
    assert_eq!(
        after.mismatches, before,
        "interrupt servicing must not diverge the pair"
    );
    assert_eq!(after.failures, 0);
}
