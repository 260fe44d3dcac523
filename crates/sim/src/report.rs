//! Structured experiment results and their JSON serialization.

use std::io;
use std::path::{Path, PathBuf};

use reunion_core::{
    EpisodeSummary, ExecutionMode, LatencyHistogram, Measurement, NormalizedResult, ObsReport,
    SampleConfig, HISTOGRAM_BUCKETS,
};
use reunion_workloads::{Workload, WorkloadClass};

use crate::grid::SampleOverride;
use crate::json::{JsonValue, JsonWriter};

/// Flattened single-system measurement (one side of a matched pair).
#[derive(Clone, Debug, PartialEq)]
pub struct MeasureSummary {
    /// Mean user IPC over measurement windows.
    pub ipc: f64,
    /// Half-width of the 95% confidence interval on the IPC.
    pub ipc_ci95: f64,
    /// Retired user instructions over all windows.
    pub user_instructions: u64,
    /// Simulated cycles over all windows.
    pub cycles: u64,
    /// Fingerprint mismatches (including in-recovery escalations).
    pub mismatches: u64,
    /// Measured input-incoherence events (mismatches first detected during
    /// normal paired execution).
    pub input_incoherence: u64,
    /// Recovery protocol invocations.
    pub recoveries: u64,
    /// Phase-two (architectural register copy) recoveries.
    pub phase2: u64,
    /// Unrecoverable failures.
    pub failures: u64,
    /// Synchronizing requests issued.
    pub sync_requests: u64,
    /// TLB misses.
    pub tlb_misses: u64,
    /// Phantom fills that returned garbage data.
    pub phantom_garbage_fills: u64,
    /// Cycles retirement stalled on serializing check round trips.
    pub serializing_stall_cycles: u64,
    /// Check round-trip cycles charged during re-executions.
    pub reexec_penalty_cycles: u64,
    /// Input-incoherence events per million user instructions (Table 3).
    pub incoherence_per_million: f64,
    /// TLB misses per million user instructions (Table 3).
    pub tlb_misses_per_million: f64,
    /// Opt-in observability block (histograms, episode summaries, trace
    /// counters). `None` unless the run enabled observability; absent from
    /// the serialized form when `None`, keeping default artifacts
    /// byte-identical to the pre-observability schema.
    pub obs: Option<ObsReport>,
}

impl From<&Measurement> for MeasureSummary {
    fn from(m: &Measurement) -> Self {
        MeasureSummary {
            ipc: m.ipc,
            ipc_ci95: m.ipc_ci95,
            user_instructions: m.totals.user_instructions,
            cycles: m.totals.cycles,
            mismatches: m.totals.mismatches,
            input_incoherence: m.totals.input_incoherence,
            recoveries: m.totals.recoveries,
            phase2: m.totals.phase2,
            failures: m.totals.failures,
            sync_requests: m.totals.sync_requests,
            tlb_misses: m.totals.tlb_misses,
            phantom_garbage_fills: m.totals.phantom_garbage_fills,
            serializing_stall_cycles: m.totals.serializing_stall_cycles,
            reexec_penalty_cycles: m.totals.reexec_penalty_cycles,
            incoherence_per_million: m.incoherence_per_million(),
            tlb_misses_per_million: m.tlb_misses_per_million(),
            obs: m.obs.clone(),
        }
    }
}

impl MeasureSummary {
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_f64("ipc", self.ipc);
        w.field_f64("ipc_ci95", self.ipc_ci95);
        w.field_u64("user_instructions", self.user_instructions);
        w.field_u64("cycles", self.cycles);
        w.field_u64("mismatches", self.mismatches);
        w.field_u64("input_incoherence", self.input_incoherence);
        w.field_u64("recoveries", self.recoveries);
        w.field_u64("phase2", self.phase2);
        w.field_u64("failures", self.failures);
        w.field_u64("sync_requests", self.sync_requests);
        w.field_u64("tlb_misses", self.tlb_misses);
        w.field_u64("phantom_garbage_fills", self.phantom_garbage_fills);
        w.field_u64("serializing_stall_cycles", self.serializing_stall_cycles);
        w.field_u64("reexec_penalty_cycles", self.reexec_penalty_cycles);
        w.field_f64("incoherence_per_million", self.incoherence_per_million);
        w.field_f64("tlb_misses_per_million", self.tlb_misses_per_million);
        if let Some(obs) = &self.obs {
            w.key("observability");
            write_obs_json(w, obs);
        }
        w.end_object();
    }

    pub(crate) fn from_json(v: &JsonValue) -> Result<Self, String> {
        Ok(MeasureSummary {
            ipc: f64_field(v, "ipc")?,
            ipc_ci95: f64_field(v, "ipc_ci95")?,
            user_instructions: u64_field(v, "user_instructions")?,
            cycles: u64_field(v, "cycles")?,
            mismatches: u64_field(v, "mismatches")?,
            input_incoherence: u64_field(v, "input_incoherence")?,
            recoveries: u64_field(v, "recoveries")?,
            phase2: u64_field(v, "phase2")?,
            failures: u64_field(v, "failures")?,
            sync_requests: u64_field(v, "sync_requests")?,
            tlb_misses: u64_field(v, "tlb_misses")?,
            phantom_garbage_fills: u64_field(v, "phantom_garbage_fills")?,
            serializing_stall_cycles: u64_field(v, "serializing_stall_cycles")?,
            reexec_penalty_cycles: u64_field(v, "reexec_penalty_cycles")?,
            incoherence_per_million: f64_field(v, "incoherence_per_million")?,
            tlb_misses_per_million: f64_field(v, "tlb_misses_per_million")?,
            obs: match v.get("observability") {
                Some(o) => Some(obs_from_json(o)?),
                None => None,
            },
        })
    }
}

/// Writes a [`LatencyHistogram`] as `{count, sum, min, max, buckets}`.
/// `min` serializes as 0 for an empty histogram (the reader restores the
/// empty sentinel from `count == 0`).
fn write_histogram_json(w: &mut JsonWriter, h: &LatencyHistogram) {
    w.begin_object();
    w.field_u64("count", h.count());
    w.field_u64("sum", h.sum());
    w.field_u64("min", h.min().unwrap_or(0));
    w.field_u64("max", h.max().unwrap_or(0));
    w.key("buckets");
    w.begin_array();
    for &b in h.buckets().iter() {
        w.u64(b);
    }
    w.end_array();
    w.end_object();
}

fn histogram_from_json(v: &JsonValue) -> Result<LatencyHistogram, String> {
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    match v.get("buckets") {
        Some(JsonValue::Array(items)) if items.len() == HISTOGRAM_BUCKETS => {
            for (slot, item) in buckets.iter_mut().zip(items.iter()) {
                let n = item
                    .as_f64()
                    .ok_or_else(|| format!("bucket entry is not a number: {item:?}"))?;
                *slot = n as u64;
            }
        }
        Some(JsonValue::Array(items)) => {
            return Err(format!(
                "histogram has {} buckets, expected {HISTOGRAM_BUCKETS}",
                items.len()
            ))
        }
        _ => return Err("missing histogram field \"buckets\"".to_string()),
    }
    Ok(LatencyHistogram::from_raw(
        u64_field(v, "count")?,
        u64_field(v, "sum")?,
        u64_field(v, "min")?,
        u64_field(v, "max")?,
        buckets,
    ))
}

/// Writes the opt-in `observability` block of a measurement summary.
pub(crate) fn write_obs_json(w: &mut JsonWriter, obs: &ObsReport) {
    w.begin_object();
    w.field_u64("skipped_cycles", obs.skipped_cycles);
    w.key("check_latency");
    write_histogram_json(w, &obs.check_latency);
    w.key("stall_episodes");
    write_histogram_json(w, obs.stall_episodes.lengths());
    w.key("skip_runs");
    write_histogram_json(w, obs.skip_runs.lengths());
    w.key("incoherence_gaps");
    write_histogram_json(w, &obs.incoherence_gaps);
    w.field_u64("trace_events", obs.trace_events);
    w.field_u64("trace_evicted", obs.trace_evicted);
    w.end_object();
}

/// Parses the `observability` block back into an [`ObsReport`]; the inverse
/// of [`write_obs_json`], exact for every value the writer emits.
pub(crate) fn obs_from_json(v: &JsonValue) -> Result<ObsReport, String> {
    let histogram = |key: &str| -> Result<LatencyHistogram, String> {
        histogram_from_json(v.get(key).ok_or_else(|| format!("missing field {key:?}"))?)
    };
    Ok(ObsReport {
        check_latency: histogram("check_latency")?,
        stall_episodes: EpisodeSummary::from_lengths(histogram("stall_episodes")?),
        skip_runs: EpisodeSummary::from_lengths(histogram("skip_runs")?),
        incoherence_gaps: histogram("incoherence_gaps")?,
        skipped_cycles: u64_field(v, "skipped_cycles")?,
        trace_events: u64_field(v, "trace_events")?,
        trace_evicted: u64_field(v, "trace_evicted")?,
    })
}

/// A float leaf; `null` reads back as NaN, mirroring the writer's encoding
/// of non-finite values.
fn f64_field(v: &JsonValue, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(JsonValue::Num(n)) => Ok(*n),
        Some(JsonValue::Null) => Ok(f64::NAN),
        Some(other) => Err(format!("field {key:?}: expected number, got {other:?}")),
        None => Err(format!("missing field {key:?}")),
    }
}

/// An unsigned-counter leaf. Counters are parsed through `f64` (the only
/// numeric type of the JSON subset), which is exact below 2^53 — far above
/// any cycle or instruction count these simulations produce.
pub(crate) fn u64_field(v: &JsonValue, key: &str) -> Result<u64, String> {
    let n = f64_field(v, key)?;
    if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0 {
        Ok(n as u64)
    } else {
        Err(format!("field {key:?}: {n} is not a u64 counter"))
    }
}

pub(crate) fn str_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// Writes a [`SampleConfig`] as the `{warmup, window, windows}` object used
/// by both `BENCH_<id>.json` and shard-manifest headers.
pub(crate) fn write_sample_json(w: &mut JsonWriter, sample: &SampleConfig) {
    w.begin_object();
    w.field_u64("warmup", sample.warmup);
    w.field_u64("window", sample.window);
    w.field_u64("windows", sample.windows as u64);
    w.end_object();
}

/// Parses the `{warmup, window, windows}` object form of a [`SampleConfig`].
pub(crate) fn sample_from_json(v: &JsonValue) -> Result<SampleConfig, String> {
    Ok(SampleConfig {
        warmup: u64_field(v, "warmup")?,
        window: u64_field(v, "window")?,
        windows: u64_field(v, "windows")? as usize,
    })
}

/// Writes one sampling override in the flat
/// `{workload, patch, warmup, window, windows}` shape — the one schema
/// shared by `BENCH_<id>.json` reports and shard-manifest headers.
pub(crate) fn write_sample_override_json(w: &mut JsonWriter, o: &SampleOverride) {
    w.begin_object();
    w.field_str("workload", &o.workload);
    w.field_str("patch", &o.patch);
    w.field_u64("warmup", o.sample.warmup);
    w.field_u64("window", o.sample.window);
    w.field_u64("windows", o.sample.windows as u64);
    w.end_object();
}

/// Parses the flat override shape written by [`write_sample_override_json`].
pub(crate) fn sample_override_from_json(v: &JsonValue) -> Result<SampleOverride, String> {
    Ok(SampleOverride {
        workload: str_field(v, "workload")?.to_string(),
        patch: str_field(v, "patch")?.to_string(),
        sample: sample_from_json(v)?,
    })
}

/// Matched-pair result: the model system and its non-redundant baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct NormalizedSummary {
    /// Mean of per-window IPC ratios.
    pub normalized_ipc: f64,
    /// Half-width of the 95% confidence interval on the ratio.
    pub ci95: f64,
    /// The measured model system.
    pub model: MeasureSummary,
    /// The matching non-redundant baseline.
    pub baseline: MeasureSummary,
}

impl From<&NormalizedResult> for NormalizedSummary {
    fn from(n: &NormalizedResult) -> Self {
        NormalizedSummary {
            normalized_ipc: n.normalized_ipc,
            ci95: n.ci95,
            model: MeasureSummary::from(&n.model),
            baseline: MeasureSummary::from(&n.baseline),
        }
    }
}

/// Static workload parameters (Table 2) — no simulation involved.
#[derive(Clone, Debug, PartialEq)]
pub struct StaticSummary {
    /// Per-thread private data footprint in bytes.
    pub private_bytes: u64,
    /// Shared data footprint in bytes.
    pub shared_bytes: u64,
    /// Number of spin locks.
    pub locks: u64,
    /// Instructions per critical section body.
    pub critical_section_len: u64,
    /// Synthetic ITLB miss rate per million fetched instructions.
    pub itlb_miss_per_million: u64,
    /// Static length of the generated program for thread 0.
    pub static_len: u64,
}

impl StaticSummary {
    /// Computes the Table 2 row for one workload.
    pub fn of(workload: &Workload) -> Self {
        let s = workload.spec();
        StaticSummary {
            private_bytes: s.private_bytes,
            shared_bytes: s.shared_bytes,
            locks: s.locks,
            critical_section_len: s.critical_section_len as u64,
            itlb_miss_per_million: s.itlb_miss_per_million,
            static_len: workload.program(0).len() as u64,
        }
    }
}

/// What one grid cell produced, by [`crate::Metric`] kind.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Matched-pair normalized measurement (boxed: the two embedded
    /// [`MeasureSummary`] values dwarf the other variants).
    Normalized(Box<NormalizedSummary>),
    /// Single-system raw measurement (boxed for the same reason).
    Raw(Box<MeasureSummary>),
    /// Static workload parameters.
    Static(StaticSummary),
}

/// The result of one grid cell.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Workload class.
    pub class: WorkloadClass,
    /// Execution mode of the measured system.
    pub mode: ExecutionMode,
    /// Patch label identifying the configuration point.
    pub patch: String,
    /// The measurement itself.
    pub outcome: Outcome,
}

impl RunRecord {
    /// The matched-pair summary, if this cell measured one.
    pub fn normalized(&self) -> Option<&NormalizedSummary> {
        match &self.outcome {
            Outcome::Normalized(n) => Some(n.as_ref()),
            _ => None,
        }
    }

    /// Shorthand for the normalized IPC value.
    pub fn normalized_ipc(&self) -> Option<f64> {
        self.normalized().map(|n| n.normalized_ipc)
    }

    /// The raw measurement, if this cell measured one.
    pub fn raw(&self) -> Option<&MeasureSummary> {
        match &self.outcome {
            Outcome::Raw(m) => Some(m.as_ref()),
            _ => None,
        }
    }

    /// The static parameters, if this cell computed them.
    pub fn statics(&self) -> Option<&StaticSummary> {
        match &self.outcome {
            Outcome::Static(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("workload", &self.workload);
        w.field_str("class", &self.class.to_string());
        w.field_str("mode", &self.mode.to_string());
        w.field_str("patch", &self.patch);
        match &self.outcome {
            Outcome::Normalized(n) => {
                w.field_f64("normalized_ipc", n.normalized_ipc);
                w.field_f64("ci95", n.ci95);
                w.key("model");
                n.model.write_json(w);
                w.key("baseline");
                n.baseline.write_json(w);
            }
            Outcome::Raw(m) => {
                w.key("measurement");
                m.write_json(w);
            }
            Outcome::Static(s) => {
                w.field_u64("private_bytes", s.private_bytes);
                w.field_u64("shared_bytes", s.shared_bytes);
                w.field_u64("locks", s.locks);
                w.field_u64("critical_section_len", s.critical_section_len);
                w.field_u64("itlb_miss_per_million", s.itlb_miss_per_million);
                w.field_u64("static_len", s.static_len);
            }
        }
        w.end_object();
    }

    /// Parses the JSON form produced by [`write_json`](Self::write_json) —
    /// how shard manifests and `BENCH_<id>.json` records are read back.
    ///
    /// Round-tripping is exact: floats use shortest round-trip formatting,
    /// so parse-then-reserialize reproduces the original bytes (the property
    /// the sharded/merged byte-identity guarantee rests on).
    pub(crate) fn from_json(v: &JsonValue) -> Result<Self, String> {
        let outcome = if v.get("normalized_ipc").is_some() {
            Outcome::Normalized(Box::new(NormalizedSummary {
                normalized_ipc: f64_field(v, "normalized_ipc")?,
                ci95: f64_field(v, "ci95")?,
                model: MeasureSummary::from_json(v.get("model").ok_or("missing field \"model\"")?)?,
                baseline: MeasureSummary::from_json(
                    v.get("baseline").ok_or("missing field \"baseline\"")?,
                )?,
            }))
        } else if let Some(m) = v.get("measurement") {
            Outcome::Raw(Box::new(MeasureSummary::from_json(m)?))
        } else {
            Outcome::Static(StaticSummary {
                private_bytes: u64_field(v, "private_bytes")?,
                shared_bytes: u64_field(v, "shared_bytes")?,
                locks: u64_field(v, "locks")?,
                critical_section_len: u64_field(v, "critical_section_len")?,
                itlb_miss_per_million: u64_field(v, "itlb_miss_per_million")?,
                static_len: u64_field(v, "static_len")?,
            })
        };
        Ok(RunRecord {
            workload: str_field(v, "workload")?.to_string(),
            class: str_field(v, "class")?.parse()?,
            mode: str_field(v, "mode")?.parse()?,
            patch: str_field(v, "patch")?.to_string(),
            outcome,
        })
    }
}

/// All records of one experiment, in grid enumeration order.
///
/// The report is the *only* artifact of a run: the experiment binaries
/// print their tables from it, and [`write_json`](Self::write_json)
/// (`BENCH_<id>.json`) persists it as the performance trajectory future
/// changes are compared against. Serialization is deterministic, so a
/// parallel and a serial run of the same grid produce byte-identical files.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentReport {
    /// Grid identifier (`BENCH_<id>.json`).
    pub id: String,
    /// Human-readable caption.
    pub caption: String,
    /// Sampling profile every cell used, unless overridden.
    pub sample: SampleConfig,
    /// Sampling overrides by workload and patch (`table3` widens em3d's
    /// measured window under global phantoms); empty for most grids.
    pub sample_overrides: Vec<SampleOverride>,
    /// One record per grid cell, in grid enumeration order.
    pub records: Vec<RunRecord>,
}

impl ExperimentReport {
    /// Looks up the record for one (workload, mode, patch-label) cell.
    pub fn get(&self, workload: &str, mode: ExecutionMode, patch: &str) -> Option<&RunRecord> {
        self.records
            .iter()
            .find(|r| r.workload == workload && r.mode == mode && r.patch == patch)
    }

    /// All records for one (mode, patch-label) slice, in workload order.
    pub fn rows<'a>(
        &'a self,
        mode: ExecutionMode,
        patch: &'a str,
    ) -> impl Iterator<Item = &'a RunRecord> + 'a {
        self.records
            .iter()
            .filter(move |r| r.mode == mode && r.patch == patch)
    }

    /// `(class, normalized IPC)` pairs for one (mode, patch) slice —
    /// the input shape of the registry's class-average helpers.
    pub(crate) fn normalized_rows(
        &self,
        mode: ExecutionMode,
        patch: &str,
    ) -> Vec<(WorkloadClass, f64)> {
        self.rows(mode, patch)
            .filter_map(|r| r.normalized_ipc().map(|v| (r.class, v)))
            .collect()
    }

    /// Mean normalized IPC over the (mode, patch) slice, restricted to
    /// classes accepted by `keep`.
    pub fn mean_normalized_where(
        &self,
        mode: ExecutionMode,
        patch: &str,
        keep: impl Fn(WorkloadClass) -> bool,
    ) -> f64 {
        let vals: Vec<f64> = self
            .normalized_rows(mode, patch)
            .into_iter()
            .filter(|(c, _)| keep(*c))
            .map(|(_, v)| v)
            .collect();
        if vals.is_empty() {
            f64::NAN
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }

    /// Serializes the report as deterministic pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("id", &self.id);
        w.field_str("caption", &self.caption);
        w.key("sample");
        write_sample_json(&mut w, &self.sample);
        if !self.sample_overrides.is_empty() {
            w.key("sample_overrides");
            w.begin_array();
            for o in &self.sample_overrides {
                write_sample_override_json(&mut w, o);
            }
            w.end_array();
        }
        w.key("records");
        w.begin_array();
        for r in &self.records {
            r.write_json(&mut w);
        }
        w.end_array();
        w.end_object();
        let mut s = w.finish();
        s.push('\n');
        s
    }

    /// Writes `BENCH_<id>.json` under `dir` (a command-line driver passes
    /// its resolved [`RunOptions::out_dir`](crate::RunOptions::out_dir)),
    /// creating the directory if needed, and returns the path.
    pub fn write_json(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.id));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(workload: &str, mode: ExecutionMode, patch: &str, ipc: f64) -> RunRecord {
        RunRecord {
            workload: workload.into(),
            class: if workload == "sparse" {
                WorkloadClass::Scientific
            } else {
                WorkloadClass::Oltp
            },
            mode,
            patch: patch.into(),
            outcome: Outcome::Normalized(Box::new(NormalizedSummary {
                normalized_ipc: ipc,
                ci95: 0.0,
                model: blank_measure(ipc),
                baseline: blank_measure(1.0),
            })),
        }
    }

    fn blank_measure(ipc: f64) -> MeasureSummary {
        MeasureSummary {
            ipc,
            ipc_ci95: 0.0,
            user_instructions: 0,
            cycles: 0,
            mismatches: 0,
            input_incoherence: 0,
            recoveries: 0,
            phase2: 0,
            failures: 0,
            sync_requests: 0,
            tlb_misses: 0,
            phantom_garbage_fills: 0,
            serializing_stall_cycles: 0,
            reexec_penalty_cycles: 0,
            incoherence_per_million: 0.0,
            tlb_misses_per_million: 0.0,
            obs: None,
        }
    }

    fn report() -> ExperimentReport {
        ExperimentReport {
            id: "t".into(),
            caption: "t".into(),
            sample: SampleConfig::quick(),
            sample_overrides: Vec::new(),
            records: vec![
                sample_record("db2", ExecutionMode::Reunion, "base", 0.9),
                sample_record("sparse", ExecutionMode::Reunion, "base", 0.7),
                sample_record("db2", ExecutionMode::Strict, "base", 0.95),
            ],
        }
    }

    #[test]
    fn lookup_by_cell_key() {
        let r = report();
        assert_eq!(
            r.get("db2", ExecutionMode::Strict, "base")
                .unwrap()
                .normalized_ipc(),
            Some(0.95)
        );
        assert!(r.get("db2", ExecutionMode::NonRedundant, "base").is_none());
        assert_eq!(r.rows(ExecutionMode::Reunion, "base").count(), 2);
    }

    #[test]
    fn class_filtered_mean() {
        let r = report();
        let commercial =
            r.mean_normalized_where(ExecutionMode::Reunion, "base", |c| c.is_commercial());
        assert!((commercial - 0.9).abs() < 1e-12);
        let all = r.mean_normalized_where(ExecutionMode::Reunion, "base", |_| true);
        assert!((all - 0.8).abs() < 1e-12);
    }

    #[test]
    fn json_is_stable_and_contains_records() {
        let r = report();
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"normalized_ipc\": 0.9"));
        assert!(a.contains("\"mode\": \"strict\""));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn write_creates_a_missing_output_directory() {
        let root = std::env::temp_dir().join(format!("reunion-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let r = report();
        let path = r
            .write_json(&root.join("not").join("yet"))
            .expect("write into a missing nested directory");
        let text = std::fs::read_to_string(&path).expect("artifact readable");
        let parsed = crate::json::parse_json(&text).expect("artifact parses");
        assert_eq!(parsed.get("id").and_then(JsonValue::as_str), Some("t"));
        std::fs::remove_dir_all(&root).expect("cleanup");
    }
}
