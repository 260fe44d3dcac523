//! Statistics primitives for simulation metrics.
//!
//! The Reunion evaluation reports normalized IPC, events per million
//! instructions, and confidence intervals from matched-pair sampling. These
//! types are the building blocks for all of those.

use std::fmt;

/// A monotonically increasing event counter; `Default` is zero.
///
/// # Examples
///
/// ```
/// use reunion_kernel::stats::Counter;
///
/// let mut c = Counter::default();
/// c.incr();
/// c.add(2);
/// assert_eq!(c.value(), 3);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// A running mean/variance accumulator (Welford's algorithm).
///
/// Used by the sampling harness to compute the 95% confidence intervals the
/// paper targets (±5% on change in performance).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 with no observations).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Half-width of the 95% confidence interval on the mean, using the
    /// normal approximation (`1.96 * s / sqrt(n)`). Returns 0 for `n < 2`.
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.variance().sqrt() / (self.n as f64).sqrt()
        }
    }
}

impl fmt::Display for RunningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean={:.4} ±{:.4} (n={})",
            self.mean(),
            self.ci95_half_width(),
            self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_resets() {
        let mut c = Counter::default();
        c.incr();
        c.add(9);
        assert_eq!(c.value(), 10);
        c = Counter::default();
        assert_eq!(c.value(), 0);
        assert_eq!(std::mem::size_of::<Counter>(), 8);
    }

    #[test]
    fn running_stats_mean_and_ci() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.571428).abs() < 1e-3);
        assert!(s.ci95_half_width() > 0.0);
    }

    #[test]
    fn running_stats_degenerate_cases() {
        let mut s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
        s.push(3.0);
        assert_eq!(s.variance(), 0.0);
    }
}
