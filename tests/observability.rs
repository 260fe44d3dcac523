//! The observability layer's load-bearing guarantees.
//!
//! Three properties gate the layer:
//!
//! 1. **Determinism is preserved with observability on** — serial and
//!    parallel runs of an obs-enabled grid produce byte-identical reports,
//!    exactly as they do with it off, and so does a report merged back
//!    from shard manifests of its records.
//! 2. **Engine invariance** — `check_latency`, `stall_episodes` and
//!    `incoherence_gaps` (and the bounded event trace) are recorded only
//!    inside ticks, so dense and skip engines must agree on them exactly;
//!    only `skip_runs`/`skipped_cycles` may (must) differ.
//! 3. **Default-off byte-stability** — a run without observability emits
//!    no `observability` block at all, keeping pre-existing artifacts
//!    byte-identical.
//!
//! Randomized cases are seeded by `REUNION_PROP_SEED` (a u64; default
//! below), never by wall-clock time, so failures replay exactly.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use reunion_core::{
    measure, Engine, ExecutionMode, ObsConfig, ObsReport, SampleConfig, SystemConfig,
};
use reunion_kernel::SimRng;
use reunion_sim::{
    merge_manifests, ExperimentGrid, ManifestHeader, Runner, ShardManifest, ShardSpec,
};
use reunion_workloads::{suite, Workload};

const DEFAULT_SEED: u64 = 0xE16_16E5;

fn prop_seed() -> u64 {
    std::env::var("REUNION_PROP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// A fresh scratch directory per test invocation (std-only; the build
/// environment has no tempfile crate).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "reunion-obs-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The observability configuration under test. Grids inject it through
/// [`reunion_sim::GridBuilder::observability`] (the grid-level overlay
/// stamps every cell), direct `measure` calls through [`obs_base`] —
/// no environment mutation either way, so parallel test threads cannot
/// race.
const OBS_ON: ObsConfig = ObsConfig {
    enabled: true,
    trace_cap: 64,
};

/// Base config with the observability layer switched on programmatically.
fn obs_base(mode: ExecutionMode) -> SystemConfig {
    SystemConfig::small_test(mode).with_observability(OBS_ON)
}

fn small_sample() -> SampleConfig {
    SampleConfig {
        warmup: 5_000,
        window: 5_000,
        windows: 2,
    }
}

fn obs_grid(id: &str) -> ExperimentGrid {
    ExperimentGrid::builder(id, "observability property grid")
        .observability(OBS_ON)
        .base(SystemConfig::small_test)
        .sample(small_sample())
        .workloads(vec![
            Workload::by_name("sparse").unwrap(),
            Workload::by_name("moldyn").unwrap(),
        ])
        .modes(&[ExecutionMode::Strict, ExecutionMode::Reunion])
        .build()
}

/// With observability on, the report carries the block — and serial vs
/// parallel execution still produces byte-identical JSON.
#[test]
fn obs_enabled_reports_are_deterministic_and_carry_the_block() {
    let grid = obs_grid("obsdet");
    let serial = Runner::serial().run(&grid).to_json();
    let parallel = Runner::with_threads(4).run(&grid).to_json();
    assert_eq!(serial, parallel);
    assert!(
        serial.contains("\"observability\""),
        "obs-enabled report must carry the observability block"
    );
    assert!(serial.contains("\"check_latency\""));
    assert!(serial.contains("\"stall_episodes\""));
    assert!(serial.contains("\"skip_runs\""));
    assert!(serial.contains("\"incoherence_gaps\""));
}

/// Obs-off output is byte-identical to the pre-observability schema: no
/// `observability` key anywhere in the report.
#[test]
fn obs_disabled_reports_have_no_observability_block() {
    let grid = ExperimentGrid::builder("obsoff", "default-off schema stability")
        .base(SystemConfig::small_test)
        .sample(small_sample())
        .workloads(vec![Workload::by_name("sparse").unwrap()])
        .modes(&[ExecutionMode::Reunion])
        .build();
    let json = Runner::serial().run(&grid).to_json();
    assert!(!json.contains("\"observability\""));
}

/// An obs-enabled report's records, written into a 3-way partition of
/// manifests and merged, reproduce the report byte for byte — the
/// histogram serialization round-trips exactly through manifest records.
#[test]
fn obs_enabled_shard_merge_is_byte_identical() {
    let report = Runner::serial().run(&obs_grid("obsshard"));
    let scratch = Scratch::new("merge");
    let mut paths = Vec::new();
    for index in 1..=3usize {
        let shard = ShardSpec::new(index, 3);
        let header = ManifestHeader {
            id: report.id.clone(),
            caption: report.caption.clone(),
            shard,
            cells: report.records.len(),
            sample: report.sample,
            sample_overrides: report.sample_overrides.clone(),
            obs: OBS_ON,
        };
        let mut manifest = ShardManifest::create_or_resume(&scratch.0, header).expect("open");
        for (i, record) in report.records.iter().enumerate() {
            if shard.owns(i) {
                manifest.append(i, record).expect("append");
            }
        }
        paths.push(scratch.0.join(shard.manifest_file_name(&report.id)));
    }
    let merged = merge_manifests(&paths).expect("complete partition");
    assert_eq!(merged.to_json(), report.to_json());
}

/// Randomized engine-parity property: the tick-recorded histograms and the
/// event trace agree exactly between dense and skip engines; the skip-run
/// summary is the one observability field allowed (required) to differ.
#[test]
fn randomized_obs_is_engine_invariant_where_promised() {
    let mut rng = SimRng::seed_from(prop_seed() ^ 0x0B5E_51DE);
    let mut skip_episodes_total = 0u64;
    for case in 0..10 {
        let mode = if rng.chance(0.5) {
            ExecutionMode::Reunion
        } else {
            ExecutionMode::Strict
        };
        let all = suite();
        let i = (rng.next_u64() % all.len() as u64) as usize;
        let workload = all.into_iter().nth(i).expect("index in range");
        let mut cfg = obs_base(mode);
        cfg.comparison_latency = [0, 10, 20, 40][(rng.next_u64() % 4) as usize];
        cfg.seed = rng.next_u64();

        cfg.engine = Engine::Dense;
        let dense = measure(&cfg, &workload, &small_sample());
        cfg.engine = Engine::Skip;
        let skip = measure(&cfg, &workload, &small_sample());

        let d: &ObsReport = dense.obs.as_ref().expect("obs enabled");
        let s: &ObsReport = skip.obs.as_ref().expect("obs enabled");
        let ctx = format!(
            "case {case}: {mode} {} lat={}",
            workload.name(),
            cfg.comparison_latency
        );
        assert_eq!(d.check_latency, s.check_latency, "{ctx}: check latency");
        assert_eq!(d.stall_episodes, s.stall_episodes, "{ctx}: stall episodes");
        assert_eq!(
            d.incoherence_gaps, s.incoherence_gaps,
            "{ctx}: incoherence gaps"
        );
        assert_eq!(d.trace_events, s.trace_events, "{ctx}: trace counts");
        assert_eq!(d.trace_evicted, s.trace_evicted, "{ctx}: trace evictions");
        assert_eq!(dense.trace, skip.trace, "{ctx}: trace contents");

        assert_eq!(
            d.skip_runs.episodes(),
            0,
            "{ctx}: the dense engine never fast-forwards"
        );
        assert_eq!(d.skipped_cycles, 0, "{ctx}");
        // skipped_cycles is cumulative (warm-up included); skip_runs only
        // cover the measurement windows.
        assert!(s.skipped_cycles >= s.skip_runs.total_cycles(), "{ctx}");
        skip_episodes_total += s.skip_runs.episodes();
    }
    assert!(
        skip_episodes_total > 0,
        "the skip engine never recorded a skip run across the whole grid"
    );
}

/// The check-latency histogram is live on the paper's main configuration:
/// a Reunion pair records one round trip per compared interval, with
/// latencies bounded below by the configured comparison latency.
#[test]
fn check_latency_reflects_comparison_latency() {
    let workload = Workload::by_name("sparse").unwrap();
    let mut cfg = obs_base(ExecutionMode::Reunion);
    cfg.comparison_latency = 20;
    let m = measure(&cfg, &workload, &small_sample());
    let obs = m.obs.expect("obs enabled");
    assert!(obs.check_latency.count() > 0, "intervals were compared");
    // The vocal core's round trip is zero when its partner's fingerprint
    // already crossed the channel (the mute core ran ahead), so only the
    // slow tail is bounded below by the configured comparison latency.
    let max = obs.check_latency.max().expect("non-empty histogram");
    assert!(
        max >= 20,
        "some round trip must wait out the comparison latency (max {max})"
    );
    assert!(!m.trace.is_empty(), "issue/grant events were traced");
}
