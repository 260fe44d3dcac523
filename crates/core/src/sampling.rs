//! Measurement methodology: warm-up, windows, matched-pair normalization.
//!
//! The paper samples many brief measurements (SimFlex matched-pair
//! sampling): checkpoints with warm caches, 100k cycles of pipeline/queue
//! warming, then 50k-cycle measurement windows targeting 95% confidence
//! intervals. We reproduce the same structure at laptop scale: one long
//! run per configuration, split into windows after a warm-up phase, with
//! per-window matched-pair IPC ratios against the baseline. [`sampled_run`]
//! is the only code that walks that schedule.

use std::fmt;
use std::str::FromStr;

use reunion_kernel::obs::{ObsReport, TraceEvent};
use reunion_kernel::stats::RunningStats;
use reunion_workloads::Workload;

use crate::{CmpSystem, Measurement, NormalizedResult, SystemConfig, SystemStats};

/// The two sampling profiles of the evaluation.
///
/// Every experiment run accepts `--profile full|fast` and maps the choice
/// onto a [`SampleConfig`] via [`Profile::sample`]:
///
/// * [`Profile::Full`] — the paper's methodology (100k-cycle warm-up,
///   four 50k-cycle windows). This is the profile the fidelity bands in
///   ROADMAP.md must ultimately hold under.
/// * [`Profile::Fast`] — a shortened profile for smoke runs and the CI
///   trajectory gate (20k-cycle warm-up, two 20k-cycle windows).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Profile {
    /// The paper's full sampling methodology.
    #[default]
    Full,
    /// Shortened sampling for smoke runs and CI.
    Fast,
}

impl Profile {
    /// The sampling parameters this profile selects.
    pub fn sample(self) -> SampleConfig {
        match self {
            Profile::Full => SampleConfig::full(),
            Profile::Fast => SampleConfig::fast(),
        }
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Profile::Full => "full",
            Profile::Fast => "fast",
        })
    }
}

impl FromStr for Profile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "full" => Ok(Profile::Full),
            "fast" => Ok(Profile::Fast),
            other => Err(format!("unknown profile {other:?} (expected full|fast)")),
        }
    }
}

/// Sampling parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleConfig {
    /// Cycles of warm-up before the first window (caches, predictors,
    /// pipelines).
    pub warmup: u64,
    /// Cycles per measurement window.
    pub window: u64,
    /// Number of measurement windows.
    pub windows: usize,
}

impl Default for SampleConfig {
    fn default() -> Self {
        // The paper warms for 100k cycles and measures 50k; we take several
        // windows to build confidence intervals.
        SampleConfig {
            warmup: 100_000,
            window: 50_000,
            windows: 4,
        }
    }
}

impl SampleConfig {
    /// A fast profile for tests and smoke runs.
    pub fn quick() -> Self {
        SampleConfig {
            warmup: 10_000,
            window: 10_000,
            windows: 2,
        }
    }

    /// The paper's full profile: 100k-cycle warm-up, four 50k-cycle
    /// measurement windows (same as [`Default`]).
    pub fn full() -> Self {
        SampleConfig::default()
    }

    /// The shortened profile used by `--profile fast` smoke runs and the CI
    /// trajectory gate: 20k-cycle warm-up, two 20k-cycle windows.
    pub fn fast() -> Self {
        SampleConfig {
            warmup: 20_000,
            window: 20_000,
            windows: 2,
        }
    }

    /// This profile with the measured portion widened `factor`-fold (more
    /// windows, same window length), leaving the warm-up untouched.
    ///
    /// Used where a workload's event rate is below the single-event
    /// resolution of the shared profile — e.g. `table3` widens em3d until
    /// one input-incoherence event resolves inside the paper's band.
    pub fn widened(&self, factor: usize) -> Self {
        SampleConfig {
            warmup: self.warmup,
            window: self.window,
            windows: self.windows * factor.max(1),
        }
    }

    /// This profile [`widened`](Self::widened) until the measured portion
    /// covers at least `cycles` simulated cycles.
    ///
    /// Event-rate floors are naturally cycle counts, not factors: the same
    /// target yields an equivalent measured window under the full and fast
    /// profiles, so a rare event that resolves under one resolves under
    /// both.
    pub fn widened_to_cycles(&self, cycles: u64) -> Self {
        let per_factor = (self.window * self.windows as u64).max(1);
        self.widened(cycles.div_ceil(per_factor) as usize)
    }
}

/// One sampled run: what [`sampled_run`] yields.
pub struct SampledRun {
    /// The run's measurement.
    pub measurement: Measurement,
    /// Aggregate user IPC of each measurement window, in order — the
    /// series `measurement.ipc` is the mean of, and what a matched-pair
    /// ratio is taken over.
    pub window_ipc: Vec<f64>,
    /// The system as the last window left it, for the engine diagnostics
    /// no `Measurement` field carries ([`CmpSystem::proc_ticks`], the
    /// memory system's tag-storage count).
    pub system: CmpSystem,
}

/// Builds the system for one (configuration, workload) point, warms it up
/// and walks the measurement windows: the sampling loop, written once.
/// [`measure`] and [`normalized_ipc`] are both views of its result.
pub fn sampled_run(cfg: &SystemConfig, workload: &Workload, sample: &SampleConfig) -> SampledRun {
    let mut sys = CmpSystem::new(cfg, workload);
    sys.run(sample.warmup);

    // One window opens the whole measured portion: counters sum and peaks
    // take their maximum across windows, histograms and episode summaries
    // merge associatively, and skip runs clip at every `run` boundary, so
    // reading the system once after the last window gives the totals the
    // windows would add up to. Only the IPC series is per window.
    sys.begin_window();
    let mut window_ipc = Vec::with_capacity(sample.windows);
    let mut ipc = RunningStats::new();
    let mut retired = sys.user_instructions();
    for _ in 0..sample.windows {
        sys.run(sample.window);
        let now = sys.user_instructions();
        let window = SystemStats {
            user_instructions: now - retired,
            cycles: sample.window,
            ..SystemStats::default()
        }
        .ipc();
        retired = now;
        window_ipc.push(window);
        ipc.push(window);
    }
    let (obs, trace) = finish_obs(&mut sys, cfg.obs.enabled);

    SampledRun {
        measurement: Measurement {
            workload: workload.name(),
            ipc: ipc.mean(),
            ipc_ci95: ipc.ci95_half_width(),
            totals: sys.window_stats(),
            windows: sample.windows,
            skipped_cycles: sys.skipped_cycles(),
            obs,
            trace,
        },
        window_ipc,
        system: sys,
    }
}

/// Measures one (configuration, workload) point.
pub fn measure(cfg: &SystemConfig, workload: &Workload, sample: &SampleConfig) -> Measurement {
    sampled_run(cfg, workload, sample).measurement
}

/// The measurement's observability state: the measured portion's
/// [`window_obs`](CmpSystem::window_obs), the cumulative fields
/// (`skipped_cycles`, trace counters) it leaves out, and the pairs' drained
/// bounded traces. `(None, [])` when disabled.
fn finish_obs(sys: &mut CmpSystem, enabled: bool) -> (Option<ObsReport>, Vec<TraceEvent>) {
    if !enabled {
        return (None, Vec::new());
    }
    let mut obs = sys.window_obs();
    obs.skipped_cycles = sys.skipped_cycles();
    let (pushed, evicted, trace) = sys.take_trace();
    obs.trace_events = pushed;
    obs.trace_evicted = evicted;
    (Some(obs), trace)
}

/// The non-redundant half of a matched pair: what [`normalize`] reads of
/// the baseline run.
///
/// A pure function of (`model_cfg.baseline()`, workload, sample), so any
/// number of models sharing that projection can be normalized against one
/// measurement of it.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// The baseline's measurement.
    pub measurement: Measurement,
    /// Aggregate user IPC of each of its measurement windows, in order.
    pub window_ipc: Vec<f64>,
}

impl Baseline {
    /// Measures the baseline of `model_cfg`: a sampled run of
    /// [`SystemConfig::baseline`] on the same workload and sample.
    pub fn measure(model_cfg: &SystemConfig, workload: &Workload, sample: &SampleConfig) -> Self {
        let SampledRun {
            measurement,
            window_ipc,
            ..
        } = sampled_run(&model_cfg.baseline(), workload, sample);
        Baseline {
            measurement,
            window_ipc,
        }
    }
}

/// The matched-pair statistics of a model run against its baseline: window
/// `i` of the model over window `i` of the baseline (a window whose
/// baseline IPC is zero contributes no ratio).
pub fn normalize(model: Measurement, model_ipc: &[f64], baseline: &Baseline) -> NormalizedResult {
    let mut ratios = RunningStats::new();
    for (m, b) in model_ipc.iter().zip(&baseline.window_ipc) {
        if *b > 0.0 {
            ratios.push(m / b);
        }
    }
    NormalizedResult {
        workload: model.workload,
        normalized_ipc: ratios.mean(),
        ci95: ratios.ci95_half_width(),
        model,
        baseline: baseline.measurement.clone(),
    }
}

/// Measures a model configuration and its non-redundant
/// [`baseline`](SystemConfig::baseline) on the same workload and seeds, and
/// reports the per-window matched-pair normalized IPC.
///
/// The two systems share nothing they write (a read-only base image under
/// each system's own write layer), so the baseline runs after the model
/// has finished and been dropped; window `i` of one is still matched with
/// window `i` of the other.
pub fn normalized_ipc(
    model_cfg: &SystemConfig,
    workload: &Workload,
    sample: &SampleConfig,
) -> NormalizedResult {
    // Destructured in the `let`, so the model's system is dropped here,
    // before the baseline's is built.
    let SampledRun {
        measurement,
        window_ipc,
        ..
    } = sampled_run(model_cfg, workload, sample);
    normalize(
        measurement,
        &window_ipc,
        &Baseline::measure(model_cfg, workload, sample),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, ExecutionMode};
    use reunion_mem::PhantomStrength;

    #[test]
    fn measure_produces_positive_ipc() {
        let workload = Workload::by_name("sparse").unwrap();
        let cfg = SystemConfig::small_test(ExecutionMode::NonRedundant);
        let m = measure(&cfg, &workload, &SampleConfig::quick());
        assert!(m.ipc > 0.1, "ipc {}", m.ipc);
        assert_eq!(m.windows, 2);
    }

    #[test]
    fn normalized_reunion_is_at_most_one_ish() {
        let workload = Workload::by_name("sparse").unwrap();
        let cfg = SystemConfig::small_test(ExecutionMode::Reunion);
        let n = normalized_ipc(&cfg, &workload, &SampleConfig::quick());
        assert!(n.normalized_ipc > 0.2, "normalized {}", n.normalized_ipc);
        assert!(n.normalized_ipc < 1.15, "normalized {}", n.normalized_ipc);
        assert!(n.baseline.ipc >= n.model.ipc * 0.8);
    }

    fn observed(mode: ExecutionMode, engine: Engine) -> SystemConfig {
        SystemConfig::small_test(mode)
            .with_engine(engine)
            .with_observability(reunion_kernel::obs::ObsConfig {
                enabled: true,
                ..Default::default()
            })
    }

    fn assert_same(a: &Measurement, b: &Measurement, what: &str) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
    }

    /// The soundness of [`SystemConfig::baseline`] as a memo key: every
    /// field it resets is one a non-redundant machine never reads, so
    /// changing it leaves the measurement unchanged down to the
    /// observability block. A field that failed here would have to stay
    /// in the key.
    #[test]
    fn a_non_redundant_measurement_ignores_every_field_the_baseline_drops() {
        let workload = Workload::by_name("apache").unwrap();
        let sample = SampleConfig::quick();
        for engine in [Engine::Skip, Engine::Dense] {
            let cfg = observed(ExecutionMode::NonRedundant, engine);
            let reference = measure(&cfg, &workload, &sample);
            let mut variants = vec![
                ("latency 0", cfg.clone().with_comparison_latency(0)),
                ("latency 40", cfg.clone().with_comparison_latency(40)),
                ("check bus 2", cfg.clone().with_check_bandwidth(2)),
                ("interval 8", cfg.clone().with_fingerprint_interval(8)),
            ];
            for phantom in PhantomStrength::ALL {
                let mut v = cfg.clone();
                v.phantom = phantom;
                variants.push(("phantom", v));
            }
            for (what, variant) in &variants {
                assert_eq!(variant.baseline(), cfg.baseline(), "{what}");
                let m = measure(variant, &workload, &sample);
                assert_same(&m, &reference, &format!("{what}, {engine:?}"));
            }

            // Not vacuous: a field the key keeps does move the measurement.
            let reseeded = measure(&cfg.clone().with_seed(7), &workload, &sample);
            assert_ne!(format!("{reseeded:?}"), format!("{reference:?}"));
        }
    }

    /// `normalized_ipc` is nothing but two `measure`s and the statistics
    /// of their zipped window series — with observability on, so the
    /// merged report and the drained trace are held to the same.
    #[test]
    fn normalized_is_two_measurements_and_their_zipped_series() {
        let workload = Workload::by_name("apache").unwrap();
        let sample = SampleConfig::quick();
        for engine in [Engine::Skip, Engine::Dense] {
            let cfg = observed(ExecutionMode::Reunion, engine).with_comparison_latency(30);
            let mut base_cfg = cfg.clone();
            base_cfg.mode = ExecutionMode::NonRedundant;

            let n = normalized_ipc(&cfg, &workload, &sample);
            let model = sampled_run(&cfg, &workload, &sample);
            let baseline = sampled_run(&base_cfg, &workload, &sample);
            let what = format!("{engine:?}");
            assert_same(&n.model, &measure(&cfg, &workload, &sample), &what);
            assert_same(&n.baseline, &measure(&base_cfg, &workload, &sample), &what);
            assert_same(
                &n.baseline,
                &measure(&cfg.baseline(), &workload, &sample),
                &what,
            );
            let memo = Baseline::measure(&cfg, &workload, &sample);
            assert_eq!(memo.window_ipc, baseline.window_ipc, "{engine:?}");
            assert!(n.model.obs.is_some() && n.baseline.obs.is_some());
            assert!(
                !n.model.trace.is_empty(),
                "a Reunion pair traces its checks"
            );

            assert_eq!(model.window_ipc.len(), sample.windows);
            let mut ratios = RunningStats::new();
            for (m, b) in model.window_ipc.iter().zip(&baseline.window_ipc) {
                assert!(*b > 0.0);
                ratios.push(m / b);
            }
            assert_eq!(n.normalized_ipc, ratios.mean(), "{engine:?}");
            assert_eq!(n.ci95, ratios.ci95_half_width(), "{engine:?}");
            assert_eq!(model.system.skipped_cycles(), n.model.skipped_cycles);
        }
    }

    /// The sampling loop that reset, read and added up every window — the
    /// oracle [`sampled_run`]'s single read must agree with: counters sum,
    /// peaks take their maximum and histograms merge.
    fn read_every_window(
        cfg: &SystemConfig,
        workload: &Workload,
        sample: &SampleConfig,
    ) -> (SystemStats, ObsReport, Vec<f64>) {
        let mut sys = CmpSystem::new(cfg, workload);
        sys.run(sample.warmup);
        let mut t = SystemStats::default();
        let mut obs = ObsReport::new();
        let mut window_ipc = Vec::new();
        for _ in 0..sample.windows {
            sys.begin_window();
            sys.run(sample.window);
            let w = sys.window_stats();
            window_ipc.push(w.ipc());
            t.user_instructions += w.user_instructions;
            t.cycles += w.cycles;
            t.mismatches += w.mismatches;
            t.input_incoherence += w.input_incoherence;
            t.recoveries += w.recoveries;
            t.phase2 += w.phase2;
            t.failures += w.failures;
            t.sync_requests += w.sync_requests;
            t.tlb_misses += w.tlb_misses;
            t.phantom_garbage_fills += w.phantom_garbage_fills;
            t.serializing_stall_cycles += w.serializing_stall_cycles;
            t.reexec_penalty_cycles += w.reexec_penalty_cycles;
            t.peak_check_events = t.peak_check_events.max(w.peak_check_events);
            t.peak_store_chain = t.peak_store_chain.max(w.peak_store_chain);
            t.store_chain_spills += w.store_chain_spills;
            obs.merge(&sys.window_obs());
        }
        obs.skipped_cycles = sys.skipped_cycles();
        (obs.trace_events, obs.trace_evicted, _) = sys.take_trace();
        (t, obs, window_ipc)
    }

    /// Reading the system once after the last window gives what reading it
    /// after every window and adding up gave, with observability on, on
    /// cells that recover in every window (null-phantom pairs mismatch
    /// again and again) and that count stall episodes.
    #[test]
    fn one_read_of_the_measured_portion_equals_the_sum_of_its_windows() {
        let sample = SampleConfig {
            warmup: 3_000,
            window: 3_000,
            windows: 3,
        };
        let mut stall_episodes = 0;
        for name in ["em3d", "apache"] {
            let workload = Workload::by_name(name).unwrap();
            for engine in [Engine::Skip, Engine::Dense] {
                let mut cfg = observed(ExecutionMode::Reunion, engine);
                cfg.phantom = PhantomStrength::Null;
                let run = sampled_run(&cfg, &workload, &sample);
                let (totals, obs, window_ipc) = read_every_window(&cfg, &workload, &sample);
                let what = format!("{name}, {engine:?}");
                assert!(
                    totals.recoveries > sample.windows as u64,
                    "{what}: {totals:?}"
                );
                assert_eq!(run.measurement.totals, totals, "{what}");
                assert_eq!(run.measurement.obs.as_ref(), Some(&obs), "{what}");
                assert_eq!(run.window_ipc, window_ipc, "{what}");
                stall_episodes += obs.stall_episodes.episodes();
            }
        }
        assert!(stall_episodes > 0, "no stall episode was measured");
    }

    #[test]
    fn quick_profile_is_smaller() {
        let q = SampleConfig::quick();
        let d = SampleConfig::default();
        assert!(q.warmup < d.warmup);
        assert!(q.windows <= d.windows);
    }
}
