//! Simulation kernel for the Reunion CMP simulator.
//!
//! This crate provides the deterministic, dependency-free infrastructure that
//! every other crate in the workspace builds on:
//!
//! * [`Cycle`] — a strongly-typed simulation timestamp.
//! * [`SimRng`] — a seeded, reproducible pseudo-random number generator
//!   (xoshiro256\*\*). Determinism matters here: the Reunion evaluation relies
//!   on matched-pair sampling, and reproducing an input-incoherence event
//!   requires replaying the exact interleaving that produced it.
//! * [`stats`] — counters and ratio statistics used to report the paper's
//!   metrics (IPC, incoherence events per million instructions, …).
//! * [`EventHorizon`] — the fold a time-skipping engine uses to combine
//!   per-component "earliest activity" reports into the next cycle worth
//!   simulating. It is the simulator's one time-advance abstraction: each
//!   core and pair folds its own bound with it, and the system's skip
//!   engine folds those bounds with it.
//! * [`DelayQueue`] — a cycle-indexed delivery queue (one binary heap) and
//!   [`HorizonTree`] — a slot vector of per-component bounds whose minimum
//!   is their [`EventHorizon`] fold. Nothing in the simulator uses either;
//!   both are kept only because the benchmark's layer probes (`benchmark/`)
//!   name them, and go once those probes do.
//! * [`hash`] — a fixed-seed fast hasher ([`FastHashMap`]) for the
//!   simulator's hot point-lookup maps, where SipHash's DoS resistance is
//!   pure overhead.
//! * [`obs`] — the opt-in observability layer: latency histograms, episode
//!   summaries and bounded check-protocol event traces.
//!
//! # Examples
//!
//! ```
//! use reunion_kernel::{Cycle, SimRng, stats::Counter};
//!
//! let mut rng = SimRng::seed_from(0xC0FFEE);
//! let mut retired = Counter::default();
//! let now = Cycle::ZERO;
//! if rng.chance(0.5) {
//!     retired.add(4);
//! }
//! assert!(now + 10 > now);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cycle;
mod delay;
pub mod hash;
mod horizon;
pub mod obs;
mod rng;
pub mod stats;
mod tree;

pub use cycle::Cycle;
pub use delay::DelayQueue;
pub use hash::FastHashMap;
pub use horizon::EventHorizon;
pub use rng::SimRng;
pub use tree::HorizonTree;

#[cfg(test)]
mod tests {
    //! Tests of the [`obs`] layer's histograms, episode summaries, traces
    //! and reports.

    use crate::obs::*;

    /// The bucket one sample of `value` lands in.
    fn bucket_index(value: u64) -> usize {
        let mut h = LatencyHistogram::new();
        h.record(value);
        h.buckets().iter().position(|&n| n == 1).unwrap()
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index((1 << 14) - 1), 14);
        assert_eq!(bucket_index(1 << 14), 15);
        assert_eq!(bucket_index(u64::MAX), 15);
    }

    #[test]
    fn record_tracks_count_sum_min_max() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        for v in [3, 0, 12, 7] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 22);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(12));
        assert_eq!(h.mean(), Some(5.5));
        assert_eq!(h.buckets()[0], 1); // 0
        assert_eq!(h.buckets()[2], 1); // 3
        assert_eq!(h.buckets()[3], 1); // 7
        assert_eq!(h.buckets()[4], 1); // 12
    }

    /// Deterministic xorshift so merge tests exercise varied shapes without
    /// OS randomness.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    #[test]
    fn merge_is_associative_and_matches_sequential_recording() {
        let mut state = 0x0B5E_55ED_u64;
        let samples: Vec<u64> = (0..300).map(|_| xorshift(&mut state) % 50_000).collect();

        // One histogram fed everything...
        let mut all = LatencyHistogram::new();
        for &s in &samples {
            all.record(s);
        }

        // ...must equal three partials merged in either association order.
        let mut parts: Vec<LatencyHistogram> = samples
            .chunks(100)
            .map(|c| {
                let mut h = LatencyHistogram::new();
                for &s in c {
                    h.record(s);
                }
                h
            })
            .collect();
        let (a, b, c) = (parts.remove(0), parts.remove(0), parts.remove(0));

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        assert_eq!(left, right);
        assert_eq!(left, all);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = LatencyHistogram::new();
        h.record(9);
        let before = h.clone();
        h.merge(&LatencyHistogram::new());
        assert_eq!(h, before);

        let mut empty = LatencyHistogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn from_raw_round_trips_including_empty_min_sentinel() {
        let mut h = LatencyHistogram::new();
        for v in [5, 17, 90] {
            h.record(v);
        }
        let r = LatencyHistogram::from_raw(
            h.count(),
            h.sum(),
            h.min().unwrap_or(0),
            h.max().unwrap_or(0),
            *h.buckets(),
        );
        assert_eq!(r, h);

        let empty = LatencyHistogram::from_raw(0, 0, 0, 0, [0; HISTOGRAM_BUCKETS]);
        assert_eq!(empty, LatencyHistogram::new());
        assert_eq!(empty.min(), None);
    }

    #[test]
    fn episode_summary_counts_episodes_and_cycles() {
        let mut e = EpisodeSummary::new();
        e.record(10);
        e.record(4);
        assert_eq!(e.episodes(), 2);
        assert_eq!(e.total_cycles(), 14);
        let mut other = EpisodeSummary::new();
        other.record(1);
        e.merge(&other);
        assert_eq!(e.episodes(), 3);
        assert_eq!(e.total_cycles(), 15);
    }

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            lp: 0,
            kind: TraceKind::Issue,
            interval_id: cycle,
        }
    }

    #[test]
    fn trace_evicts_oldest_at_cap() {
        let mut t = EventTrace::with_capacity(3);
        for c in 0..5 {
            t.push(ev(c));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.pushed(), 5);
        assert_eq!(t.evicted(), 2);
        let cycles: Vec<u64> = t.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
        let drained = t.take_events();
        assert_eq!(drained.len(), 3);
        assert!(t.is_empty());
        // Counters survive the drain.
        assert_eq!(t.pushed(), 5);
        assert_eq!(t.evicted(), 2);
    }

    #[test]
    fn trace_cap_zero_drops_everything() {
        let mut t = EventTrace::with_capacity(0);
        t.push(ev(1));
        t.push(ev(2));
        assert!(t.is_empty());
        assert_eq!(t.pushed(), 2);
        assert_eq!(t.evicted(), 2);
    }

    #[test]
    fn obs_config_default_is_off() {
        let cfg = ObsConfig::default();
        assert!(!cfg.enabled);
        assert_eq!(cfg.trace_cap, DEFAULT_TRACE_CAP);
    }

    #[test]
    fn obs_report_merge_sums_everything() {
        let mut a = ObsReport::new();
        a.check_latency.record(10);
        a.stall_episodes.record(3);
        a.skip_runs.record(100);
        a.incoherence_gaps.record(5000);
        a.skipped_cycles = 7;
        a.trace_events = 2;
        a.trace_evicted = 1;
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.check_latency.count(), 2);
        assert_eq!(a.stall_episodes.episodes(), 2);
        assert_eq!(a.skip_runs.episodes(), 2);
        assert_eq!(a.incoherence_gaps.count(), 2);
        assert_eq!(a.skipped_cycles, 14);
        assert_eq!(a.trace_events, 4);
        assert_eq!(a.trace_evicted, 2);
    }
}
