//! Determinism guards for the many-core scaling study.
//!
//! The `scaling` grid is the first to exercise 8- and 16-pair
//! machines, the banked-L2 arbiter with bounded crossbar ports, and the
//! shared check bus together. Its gated artifact inherits the same two
//! contracts as every other figure: byte-identical reports between the
//! dense and skip engines, and between serial and parallel execution
//! schedules. These tests pin both at the scaled-up operating points on a
//! quick sampling profile, so a violation fails `cargo test` long before
//! the CI artifact gate sees it.

use reunion_core::{CmpSystem, Engine, ExecutionMode, SampleConfig, SystemConfig};
use reunion_mem::MemConfig;
use reunion_sim::{ConfigPatch, ExperimentGrid, RunOptions, Runner};
use reunion_workloads::Workload;

/// The contention-enabled base the scaling study uses, shrunk to the
/// small-test cache geometry so 16-pair cells stay test-suite cheap.
fn scaling_base(mode: ExecutionMode) -> SystemConfig {
    SystemConfig::small_test(mode).with_mem(
        MemConfig::small()
            .with_xbar_ports(2)
            .with_bank_queue_depth(2),
    )
}

fn scaling_grid(engine: Engine) -> ExperimentGrid {
    ExperimentGrid::builder("scalingtest", "scaling determinism grid")
        .run_options(&RunOptions {
            engine,
            ..Default::default()
        })
        .base(scaling_base)
        .sample(SampleConfig::quick())
        .workloads(vec![
            Workload::by_name("apache").expect("in suite"),
            Workload::by_name("moldyn").expect("in suite"),
        ])
        .modes(&[ExecutionMode::Reunion])
        .patches(vec![
            ConfigPatch::new("p8:bw2:lat=10")
                .logical_processors(8)
                .check_bandwidth(2)
                .latency(10),
            ConfigPatch::new("p16:bw2:lat=10")
                .logical_processors(16)
                .check_bandwidth(2)
                .latency(10),
            ConfigPatch::new("p16:bw0:lat=10")
                .logical_processors(16)
                .check_bandwidth(0)
                .latency(10),
        ])
        .build()
}

/// Dense ↔ skip byte-identity at 8 and 16 pairs with every contention
/// model engaged: bus grants happen only inside ticked comparison cycles
/// and the arbiter cursor advances only on arbitration, so the skip
/// engine may not reorder or drop either.
#[test]
fn scaling_reports_are_engine_invariant() {
    let dense = Runner::serial().run(&scaling_grid(Engine::Dense)).to_json();
    let skip = Runner::serial().run(&scaling_grid(Engine::Skip)).to_json();
    assert_eq!(dense, skip);
}

/// Serial ↔ parallel byte-identity: cells at different pair counts are
/// independent systems, so workers claiming them costliest-first off one
/// shared cursor must reassemble the identical report.
#[test]
fn scaling_reports_are_schedule_invariant() {
    let grid = scaling_grid(Engine::default());
    let serial = Runner::serial().run(&grid).to_json();
    let parallel = Runner::with_threads(4).run(&grid).to_json();
    assert_eq!(serial, parallel);
}

/// The scaling knobs are not silent no-ops: at 16 pairs a shared 2-cycle
/// check bus must cost normalized IPC against private channels.
#[test]
fn shared_check_bus_costs_throughput_at_scale() {
    let report = Runner::serial().run(&scaling_grid(Engine::default()));
    let ipc = |label: &str| {
        report
            .get("apache", ExecutionMode::Reunion, label)
            .and_then(|r| r.normalized())
            .expect("scaling record")
            .normalized_ipc
    };
    assert!(
        ipc("p16:bw2:lat=10") < ipc("p16:bw0:lat=10"),
        "a saturated shared check bus must slow retirement"
    );
}

/// The whole-system check-bus counts: private channels (occupancy 0) send
/// nothing through the bus's books, a shared 2-cycle bus at 8 pairs both
/// carries messages and queues them, and neither count restarts with a
/// measurement window.
#[test]
fn only_a_shared_check_bus_counts_messages_and_waits() {
    let workload = Workload::by_name("apache").expect("in suite");
    let read = |system: &CmpSystem| {
        let bus = system.check_bus();
        (bus.messages(), bus.wait_cycles())
    };
    let counts = |occupancy| {
        let cfg = scaling_base(ExecutionMode::Reunion)
            .with_logical_processors(8)
            .with_check_bandwidth(occupancy);
        let mut system = CmpSystem::new(&cfg, &workload);
        system.run(5_000);
        let counts = read(&system);
        system.begin_window();
        assert_eq!(read(&system), counts, "whole-run counts");
        counts
    };
    assert_eq!(counts(0), (0, 0));
    let (messages, waits) = counts(2);
    assert!(messages > 0, "a shared bus carries every fingerprint");
    assert!(waits > 0, "8 pairs contend for a 2-cycle bus");
}
