//! The paper's Figure 1 scenario, end to end: a logical processor pair
//! repeatedly loads a shared word while a third core races stores to it.
//! Relaxed input replication lets the vocal and mute observe different
//! values (input incoherence); fingerprint comparison detects it and the
//! re-execution protocol — rollback, single-step, synchronizing request —
//! recovers with guaranteed forward progress.
//!
//! ```bash
//! cargo run --release --example data_race_recovery
//! ```

use std::sync::Arc;

use reunion_core::{CheckBus, PairDriver, RecoveryPhase};
use reunion_cpu::{Core, CoreConfig, Role};
use reunion_isa::{Addr, AluOp, Instruction as I, Program, RegId};
use reunion_kernel::Cycle;
use reunion_mem::{MemConfig, MemorySystem, Owner};

fn r(i: u8) -> RegId {
    RegId::new(i)
}

fn main() {
    // The pair's program: spin reading M[0x4000] and folding it into r3.
    let program = Arc::new(
        Program::new(
            "figure1",
            vec![
                I::load_imm(r(1), 0x4000),
                I::load(r(2), r(1), 0), // the racy load
                I::alu(AluOp::Add, r(3), r(3), r(2)),
                I::jump(1),
            ],
        )
        .expect("valid program"),
    );

    let mut mem = MemorySystem::new(MemConfig::small());
    mem.poke(Addr::new(0x4000), 0);
    let vocal_l1 = mem.register_l1(Owner::vocal(0));
    let mute_l1 = mem.register_l1(Owner::mute(0));
    let writer_l1 = mem.register_l1(Owner::vocal(1));

    let cfg = CoreConfig::for_role(Role::Reunion);
    let vocal = Core::new(cfg.clone(), program.clone(), vocal_l1, 7);
    let mute = Core::new(cfg, program, mute_l1, 7);
    let mut pair = PairDriver::new(vocal, mute, 10);
    let mut bus = CheckBus::new(0); // private (unmodeled) check channels

    let mut writes = 0u64;
    for now in 0..100_000u64 {
        // An intervening store from another processor every ~700 cycles —
        // exactly the situation in the paper's Figure 1.
        if now % 700 == 350 {
            writes += 1;
            mem.drain_store(Cycle::new(now), writer_l1, Addr::new(0x4000), writes);
        }
        pair.tick(Cycle::new(now), &mut mem, &mut bus);
    }

    let stats = pair.stats();
    println!("racing stores injected:      {writes}");
    println!("incoherence events detected: {}", stats.mismatches.value());
    println!("recoveries completed:        {}", stats.recoveries.value());
    println!(
        "synchronizing requests:      {}",
        stats.sync_requests.value()
    );
    println!(
        "phase-2 escalations:         {}",
        stats.phase2_recoveries.value()
    );
    println!("failures:                    {}", stats.failures.value());
    println!("user instructions retired:   {}", pair.retired_user());
    assert_eq!(pair.phase(), RecoveryPhase::Normal);
    assert_eq!(stats.failures.value(), 0);
    assert!(stats.mismatches.value() > 0, "races must be detected");
    assert!(
        pair.retired_user() > 10_000,
        "and execution must make progress"
    );
    println!("\nevery race was detected, recovered, and execution progressed.");
}
