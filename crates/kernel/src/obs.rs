//! Observability primitives for the Reunion timing model.
//!
//! The rest of the workspace keeps flat counters; the paper's story is told
//! in *distributions* (check round-trip latency, serializing-stall episode
//! length, input-incoherence inter-arrival). This module holds the small
//! building blocks that record them:
//!
//! - [`LatencyHistogram`] — fixed power-of-two buckets, merge-associative,
//!   exactly representable in JSON (all fields are `u64`).
//! - [`EpisodeSummary`] — a histogram over episode *lengths* (stall runs,
//!   skip runs).
//! - [`EventTrace`] — a bounded ring buffer of check-protocol events
//!   ([`TraceEvent`]) with cycle stamps, dumpable per cell as JSONL.
//! - [`ObsConfig`] — the opt-in switch (`--obs` / `--trace-cap`, resolved
//!   by `reunion_sim::RunOptions`); everything is off by default so
//!   baseline artifacts stay byte-stable.
//! - [`ObsReport`] — the merged per-measurement summary surfaced through the
//!   BENCH JSON schema's `observability` block.
//!
//! Everything here is engine-agnostic: the recording *sites* in
//! `reunion-cpu`/`reunion-core` decide which series are dense↔skip
//! invariant (check latency, stall episodes, incoherence gaps, the trace)
//! and which are engine-dependent by design (skip runs, `skipped_cycles`).

use std::collections::VecDeque;

/// Number of buckets in a [`LatencyHistogram`].
///
/// Bucket 0 holds zero-valued samples; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i)`; the last bucket is open-ended. 16 buckets cover
/// episode lengths up to 2^14 cycles before saturating, which comfortably
/// spans every latency this model produces (check latencies are tens of
/// cycles, stall episodes hundreds, skip runs thousands).
pub const HISTOGRAM_BUCKETS: usize = 16;

/// A fixed-bucket latency histogram with power-of-two bucket boundaries.
///
/// Merge is associative and commutative: merging per-window (or per-shard)
/// histograms in any order yields byte-identical totals, which is what lets
/// shard-merged observability output equal a single-process run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    /// `u64::MAX` sentinel while empty.
    min: u64,
    max: u64,
}

/// The empty histogram of [`new`](LatencyHistogram::new), so a `min`
/// sentinel holds in every derived `Default` that contains one.
impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Self) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or `None` while empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` while empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded samples, or `None` while empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The raw bucket counts (index per [`HISTOGRAM_BUCKETS`] doc).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Reassemble a histogram from serialized fields.
    ///
    /// `min` is stored as `0` in JSON when the histogram is empty; the
    /// empty-histogram sentinel is restored from `count == 0`.
    pub fn from_raw(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        buckets: [u64; HISTOGRAM_BUCKETS],
    ) -> Self {
        Self {
            buckets,
            count,
            sum,
            min: if count == 0 { u64::MAX } else { min },
            max,
        }
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// A summary of variable-length episodes (serializing-stall runs, skip runs).
///
/// Thin wrapper over [`LatencyHistogram`] keyed by episode *length in
/// cycles*; kept distinct so call sites read as what they are.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpisodeSummary {
    lengths: LatencyHistogram,
}

impl EpisodeSummary {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed episode of `length` cycles.
    pub fn record(&mut self, length: u64) {
        self.lengths.record(length);
    }

    /// Fold another summary into this one.
    pub fn merge(&mut self, other: &Self) {
        self.lengths.merge(&other.lengths);
    }

    /// Number of completed episodes.
    pub fn episodes(&self) -> u64 {
        self.lengths.count()
    }

    /// Total cycles across all episodes.
    pub fn total_cycles(&self) -> u64 {
        self.lengths.sum()
    }

    /// The underlying length histogram.
    pub fn lengths(&self) -> &LatencyHistogram {
        &self.lengths
    }

    /// Reassemble from a deserialized length histogram.
    pub fn from_lengths(lengths: LatencyHistogram) -> Self {
        Self { lengths }
    }
}

/// What happened at a traced point in the check protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A completed interval reached the check stage on the vocal core.
    Issue,
    /// The comparison matched and release grants were returned to both cores.
    Grant,
    /// Fingerprints disagreed (soft error or input incoherence).
    Mismatch,
    /// A recovery (rollback + synchronized re-execution) began.
    Recovery,
    /// Recovery escalation exhausted both phases: unrecoverable fault.
    Failure,
}

impl TraceKind {
    /// Stable serialized name.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Issue => "issue",
            TraceKind::Grant => "grant",
            TraceKind::Mismatch => "mismatch",
            TraceKind::Recovery => "recovery",
            TraceKind::Failure => "failure",
        }
    }
}

impl std::str::FromStr for TraceKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "issue" => Ok(TraceKind::Issue),
            "grant" => Ok(TraceKind::Grant),
            "mismatch" => Ok(TraceKind::Mismatch),
            "recovery" => Ok(TraceKind::Recovery),
            "failure" => Ok(TraceKind::Failure),
            other => Err(format!("unknown trace kind {other:?}")),
        }
    }
}

impl std::fmt::Display for TraceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One cycle-stamped event in the check protocol of one redundant pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle stamp (the cycle the event takes effect).
    pub cycle: u64,
    /// Logical-processor index of the pair that produced the event.
    pub lp: u32,
    /// What happened.
    pub kind: TraceKind,
    /// Sequence number of the interval involved (0 when not applicable).
    pub interval_id: u64,
}

/// A bounded ring buffer of [`TraceEvent`]s.
///
/// When full, the oldest event is evicted so the trace always holds the
/// *most recent* `cap` events; `evicted()` reports how many were dropped.
/// A cap of 0 records nothing (every push counts as evicted).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventTrace {
    events: VecDeque<TraceEvent>,
    cap: usize,
    pushed: u64,
    evicted: u64,
}

impl EventTrace {
    /// An empty trace bounded at `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            events: VecDeque::with_capacity(cap.min(4096)),
            cap,
            pushed: 0,
            evicted: 0,
        }
    }

    /// Append an event, evicting the oldest if the trace is at capacity.
    pub fn push(&mut self, event: TraceEvent) {
        self.pushed += 1;
        if self.cap == 0 {
            self.evicted += 1;
            return;
        }
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.evicted += 1;
        }
        self.events.push_back(event);
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever pushed (retained + evicted).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Events dropped because the buffer was full (or cap is 0).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Iterate retained events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Drain the retained events oldest-first, leaving the trace empty
    /// (counters are preserved).
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        self.events.drain(..).collect()
    }
}

/// Default [`EventTrace`] capacity when observability is enabled without an
/// explicit `--trace-cap`.
pub const DEFAULT_TRACE_CAP: usize = 4096;

/// Opt-in observability configuration.
///
/// Default-constructed (and absent-from-env) state is *off*: no histograms
/// are recorded, no trace is kept, and serialized artifacts are
/// byte-identical to pre-observability output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch for histogram/episode recording and trace capture.
    pub enabled: bool,
    /// Per-pair bound on retained trace events.
    pub trace_cap: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            trace_cap: DEFAULT_TRACE_CAP,
        }
    }
}

/// Merged observability summary for one measurement (all windows, all pairs).
///
/// Every field is a `u64`-backed structure so the JSON round trip is exact.
/// `check_latency`, `stall_episodes`, `incoherence_gaps`, and the trace
/// counters are dense↔skip engine-invariant; `skip_runs` and
/// `skipped_cycles` describe the engine itself and differ across engines by
/// design.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsReport {
    /// Check round-trip latency: cycles from a vocal interval reaching the
    /// check stage to its release grant arriving back.
    pub check_latency: LatencyHistogram,
    /// Lengths of serializing-stall episodes (consecutive cycles a core's
    /// retire stage waited on an outstanding serializing check).
    pub stall_episodes: EpisodeSummary,
    /// Lengths of cycle runs the engine fast-forwarded over
    /// (engine-dependent: dense only skips quiescent tails).
    pub skip_runs: EpisodeSummary,
    /// Inter-arrival gaps between input-incoherence events.
    pub incoherence_gaps: LatencyHistogram,
    /// Total cycles skipped by the engine (promoted from the counter kept
    /// out of the schema since the skip engine landed).
    pub skipped_cycles: u64,
    /// Total trace events captured (including later-evicted ones).
    pub trace_events: u64,
    /// Trace events evicted by the ring-buffer bound.
    pub trace_evicted: u64,
}

impl ObsReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold another report into this one (associative, commutative).
    pub fn merge(&mut self, other: &Self) {
        self.check_latency.merge(&other.check_latency);
        self.stall_episodes.merge(&other.stall_episodes);
        self.skip_runs.merge(&other.skip_runs);
        self.incoherence_gaps.merge(&other.incoherence_gaps);
        self.skipped_cycles += other.skipped_cycles;
        self.trace_events += other.trace_events;
        self.trace_evicted += other.trace_evicted;
    }
}
