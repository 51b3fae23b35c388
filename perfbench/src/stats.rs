//! Order statistics over timing samples.
//!
//! A timing is reported as its median plus the highest tail percentile that
//! still has at least ten samples beyond it, with the sample count beside it.

use std::fmt;

/// Tail percentiles on offer, in per-mille, highest first.
const TAILS_PERMILLE: [u64; 5] = [999, 990, 950, 900, 750];

/// Samples a tail percentile must have beyond it to be reported.
const TAIL_SUPPORT: u64 = 10;

/// The `p`-th percentile (0 ≤ p ≤ 100) of ascending `sorted`, interpolating
/// linearly between the two closest ranks.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The highest tail percentile that `n` samples support: at least ten
/// samples lie beyond it. `None` below 40 samples.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS_PERMILLE
        .into_iter()
        .find(|&pm| n as u64 * (1000 - pm) >= TAIL_SUPPORT * 1000)
        .map(|pm| pm as f64 / 10.0)
}

/// Median of `samples` (any order).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median and supported tail of one timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples taken.
    pub n: usize,
    /// The median.
    pub median: f64,
    /// The tail percentile reported, if the sample supports one.
    pub tail_pct: Option<f64>,
    /// The value at `tail_pct` (the maximum when no tail is supported).
    pub tail: f64,
}

impl Summary {
    /// Summarize `samples` (any order, at least one).
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        let tail_pct = supported_tail(s.len());
        let tail = percentile(&s, tail_pct.unwrap_or(100.0));
        Summary { n: s.len(), median: percentile(&s, 50.0), tail_pct, tail }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.tail_pct {
            Some(p) => write!(f, "p50 {:.4} p{p} {:.4} (n={})", self.median, self.tail, self.n),
            None => write!(f, "p50 {:.4} max {:.4} (n={})", self.median, self.tail, self.n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
        assert!((percentile(&s, 25.0) - 1.75).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(99), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail_pct, Some(99.0));
        assert!((s.tail - 990.01).abs() < 1e-9);
        let few = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((few.tail_pct, few.tail), (None, 3.0));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.5]) - 0.5).abs() < 1e-12);
    }
}
