//! Cross-layer integration of the experiment-runner subsystem: grids built
//! from the real workload suite, executed serially and in parallel, must
//! agree byte-for-byte — the guarantee the `BENCH_<id>.json` trajectory
//! artifacts rest on.

use reunion_core::{ExecutionMode, SampleConfig, SystemConfig};
use reunion_sim::{ConfigPatch, ExperimentGrid, Metric, RunOptions, Runner};
use reunion_workloads::{suite, Workload};

fn small_sample() -> SampleConfig {
    SampleConfig {
        warmup: 5_000,
        window: 5_000,
        windows: 2,
    }
}

/// A miniature Figure-6-shaped grid over real suite workloads.
fn mini_fig6() -> ExperimentGrid {
    ExperimentGrid::builder("mini_fig6", "latency sweep, test scale")
        .base(SystemConfig::small_test)
        .sample(small_sample())
        .workloads(vec![
            Workload::by_name("ocean").unwrap(),
            Workload::by_name("apache").unwrap(),
        ])
        .modes(&[ExecutionMode::Strict, ExecutionMode::Reunion])
        .patches(vec![
            ConfigPatch::new("lat=0").latency(0),
            ConfigPatch::new("lat=40").latency(40),
        ])
        .build()
}

#[test]
fn parallel_and_serial_grid_runs_are_byte_identical() {
    let grid = mini_fig6();
    let serial = Runner::serial().run(&grid);
    let parallel = Runner::with_threads(8).run(&grid);
    assert_eq!(serial.to_json(), parallel.to_json());
    // Not just the serialization: the structured records agree too.
    assert_eq!(serial, parallel);
}

#[test]
fn report_covers_the_whole_grid_in_order() {
    let grid = mini_fig6();
    let report = Runner::with_threads(4).run(&grid);
    assert_eq!(report.records.len(), 8);
    for (record, cell) in report.records.iter().zip(grid.cells()) {
        assert_eq!(record.workload, cell.workload.name());
        assert_eq!(record.mode, cell.mode);
        assert_eq!(record.patch, cell.patch.label());
        let n = record.normalized().expect("normalized metric");
        assert!(n.baseline.ipc > 0.0, "baseline must make progress");
        assert!(n.normalized_ipc > 0.0, "model must make progress");
    }
}

#[test]
fn latency_hurts_normalized_ipc_on_average() {
    let grid = mini_fig6();
    let report = RunOptions::default().runner().run(&grid);
    let fast = report.mean_normalized_where(ExecutionMode::Reunion, "lat=0", |_| true);
    let slow = report.mean_normalized_where(ExecutionMode::Reunion, "lat=40", |_| true);
    assert!(
        slow < fast + 0.02,
        "40-cycle comparison latency should not beat 0-cycle: {slow} vs {fast}"
    );
}

#[test]
fn static_grid_needs_no_simulation_and_matches_specs() {
    let grid = ExperimentGrid::builder("mini_table2", "static params")
        .metric(Metric::Static)
        .sample(small_sample())
        .workloads(suite())
        .modes(&[ExecutionMode::NonRedundant])
        .build();
    let report = RunOptions::default().runner().run(&grid);
    assert_eq!(report.records.len(), suite().len());
    for (record, workload) in report.records.iter().zip(suite()) {
        let s = record.statics().expect("static outcome");
        assert_eq!(s.private_bytes, workload.spec().private_bytes);
        assert!(s.static_len > 100, "generated programs are nontrivial");
    }
}

#[test]
fn json_artifact_round_trip_shape() {
    let grid = ExperimentGrid::builder("mini_raw", "raw measurement")
        .metric(Metric::Raw)
        .base(SystemConfig::small_test)
        .sample(small_sample())
        .workloads(vec![Workload::by_name("sparse").unwrap()])
        .modes(&[ExecutionMode::Reunion])
        .build();
    let json = Runner::serial().run(&grid).to_json();
    assert!(json.starts_with("{\n"));
    assert!(json.ends_with("}\n"));
    assert!(json.contains("\"id\": \"mini_raw\""));
    assert!(json.contains("\"measurement\""));
    assert!(json.contains("\"workload\": \"sparse\""));
}
