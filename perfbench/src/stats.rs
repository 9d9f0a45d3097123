//! Order statistics for the benchmark's latency reports.
//!
//! Percentiles are nearest-rank: the value at 1-based rank
//! `ceil(p/100 · n)` of the sorted samples, so every reported number is
//! a measured sample, never an interpolation. A tail percentile is only
//! trustworthy when enough samples lie beyond it; [`highest_supported`]
//! picks the highest standard percentile that has at least
//! [`MIN_BEYOND`] samples above its rank.

/// Samples that must lie beyond a percentile's rank for it to count as
/// measured rather than as one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// The percentiles [`highest_supported`] chooses from, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of percentile `p` among `n` samples.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    assert!(n > 0, "no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    // The epsilon absorbs float error in `p · n / 100` (99.9 · 10 000
    // must give rank 9 990, not 9 991).
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of samples already sorted ascending.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(samples), p)
}

/// Samples strictly beyond the rank of percentile `p`.
pub fn beyond(p: f64, n: usize) -> usize {
    n - nearest_rank(p, n)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// lacks them.
pub fn highest_supported(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// Median by nearest rank.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// A copy sorted ascending (NaN-free input; `+∞` sorts last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}
