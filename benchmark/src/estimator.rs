//! The quiet-time estimator and the small order statistics around it.
//!
//! The simulator is deterministic single-thread CPU work, so whatever the
//! host adds to a timing is additive and non-negative. Every unit is timed
//! once per round; a unit's *quiet time* is its minimum over rounds and a
//! workload's quiet round time is the sum of its units' quiet times. On
//! the 2-thread reference host this repeats to ~3 % where the median of
//! whole-round times moved 13–23 % (README.md, "Estimator").

/// Per-unit timings, one row per round (`rounds[r][u]`, seconds).
#[derive(Clone, Debug, Default)]
pub struct Rounds {
    rounds: Vec<Vec<f64>>,
}

impl Rounds {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one round's per-unit seconds.
    ///
    /// # Panics
    ///
    /// Panics if the round's unit count differs from earlier rounds'.
    pub fn push(&mut self, unit_seconds: Vec<f64>) {
        if let Some(first) = self.rounds.first() {
            assert_eq!(first.len(), unit_seconds.len(), "unit count changed");
        }
        self.rounds.push(unit_seconds);
    }

    /// Each unit's minimum over rounds.
    pub fn quiet_units(&self) -> Vec<f64> {
        let units = self.rounds.first().map_or(0, Vec::len);
        (0..units)
            .map(|u| {
                self.rounds
                    .iter()
                    .map(|r| r[u])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Sum of the units' quiet times: the workload's quiet round time.
    pub fn quiet_round(&self) -> f64 {
        self.quiet_units().iter().sum()
    }

    /// Index and quiet time of the slowest unit.
    pub fn slowest_unit(&self) -> Option<(usize, f64)> {
        self.quiet_units()
            .into_iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Whole-round wall times (sum over units), one per round.
    pub fn round_sums(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.iter().sum()).collect()
    }
}

/// Median of `values` (mean of the middle two for an even count); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// How well the two quietest samples agree, `(second - lowest) / lowest`:
/// the resolution of a minimum. One loud sample among many does not move
/// it; a minimum nothing else came close to does. Zero below two samples.
pub fn low_gap(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v[..] {
        [lowest, second, ..] if lowest > 0.0 => (second - lowest) / lowest,
        _ => 0.0,
    }
}

/// `(Q3 - Q1) / median`, quartiles as Python's `statistics.quantiles(n=4)`
/// gives them: the spread the benchmark's driver computes over runs, here
/// over the set-up samples of one run. Zero below two samples.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let m = v.len() + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let m = median(&v);
    if m > 0.0 {
        (quartile(3) - quartile(1)) / m
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_time_takes_each_units_minimum_across_rounds() {
        let mut r = Rounds::new();
        // A burst hits unit 0 in round 1 and unit 1 in round 2: no single
        // round is quiet, the per-unit minima still are.
        r.push(vec![1.9, 2.0, 0.5]);
        r.push(vec![1.0, 3.5, 0.5]);
        r.push(vec![1.1, 2.1, 0.6]);
        assert_eq!(r.quiet_units(), vec![1.0, 2.0, 0.5]);
        assert!((r.quiet_round() - 3.5).abs() < 1e-12);
        assert_eq!(r.slowest_unit(), Some((1, 2.0)));
        let sums = r.round_sums();
        assert!(sums.iter().all(|&s| s > r.quiet_round()));
    }

    #[test]
    fn additive_noise_never_lowers_the_estimate() {
        let truth = [0.8, 0.3, 1.2];
        let mut r = Rounds::new();
        for round in 0..5u32 {
            r.push(
                truth
                    .iter()
                    .enumerate()
                    .map(|(u, t)| t + f64::from((round + u as u32) % 3) * 0.07)
                    .collect(),
            );
        }
        assert!((r.quiet_round() - truth.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single_round() {
        let r = Rounds::new();
        assert_eq!(r.quiet_round(), 0.0);
        assert_eq!(r.slowest_unit(), None);
        let mut r = Rounds::new();
        r.push(vec![2.0]);
        assert_eq!(r.quiet_round(), 2.0);
    }

    #[test]
    #[should_panic(expected = "unit count changed")]
    fn rounds_must_agree_on_unit_count() {
        let mut r = Rounds::new();
        r.push(vec![1.0, 2.0]);
        r.push(vec![1.0]);
    }

    #[test]
    fn median_low_gap_and_quartile_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());

        assert_eq!(low_gap(&[5.0]), 0.0);
        // One loud sample does not widen it; the two quietest set it.
        assert!((low_gap(&[10.0, 30.0, 10.2]) - 0.02).abs() < 1e-12);
        assert!((low_gap(&[10.0, 13.0]) - 0.3).abs() < 1e-12);

        assert_eq!(quartile_spread(&[5.0]), 0.0);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert!((quartile_spread(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
    }
}
