//! Latency summaries: the median and the tail-percentile rule.
//!
//! A tail percentile is reported only where the sample supports it: the
//! highest percentile (at most the one asked for) that still has at
//! least [`MIN_BEYOND`] samples above it. With 1,000 samples that is
//! p99; with 500 it drops to p98.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile read off a sample, with what it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    /// The percentile actually reported, in `(0, 1]`.
    pub p: f64,
    /// The sample value at that percentile (nearest rank).
    pub value: f64,
    /// Samples the percentile was read from.
    pub n: usize,
}

/// Nearest-rank index of percentile `p` in a sorted sample of `n`.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The median of `sorted` (nearest rank), or `None` when empty.
pub fn median(sorted: &[f64]) -> Option<Quantile> {
    if sorted.is_empty() {
        return None;
    }
    let k = rank(0.5, sorted.len());
    Some(Quantile { p: 0.5, value: sorted[k], n: sorted.len() })
}

/// The highest percentile no greater than `target` that has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when the sample is too
/// small to have any (`n <= MIN_BEYOND`). `sorted` must be ascending.
pub fn tail(sorted: &[f64], target: f64) -> Option<Quantile> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    // Index k has n - 1 - k samples beyond it.
    let k = rank(target, n).min(n - 1 - MIN_BEYOND);
    Some(Quantile { p: (k + 1) as f64 / n as f64, value: sorted[k], n })
}

/// Sorts a latency sample in place (ascending; NaN-free by construction).
pub fn sort(sample: &mut [f64]) {
    sample.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
}

/// The median of an unsorted list of per-run values (used for set-up
/// and recovery times measured several times in one run).
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    median(&v).expect("at least one repetition").value
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let q = tail(&ramp(1000), 0.99).unwrap();
        assert_eq!(q.value, 990.0);
        assert_eq!(q.p, 0.99);
        // Exactly ten samples lie beyond it.
        assert_eq!(1000 - 990, MIN_BEYOND);
    }

    #[test]
    fn smaller_samples_fall_back_to_the_highest_supported_percentile() {
        let q = tail(&ramp(500), 0.99).unwrap();
        assert_eq!(q.value, 490.0);
        assert_eq!(q.p, 0.98);
        assert_eq!(500 - q.value as usize, MIN_BEYOND);
        let q = tail(&ramp(11), 0.99).unwrap();
        assert_eq!(q.value, 1.0);
        assert!(tail(&ramp(10), 0.99).is_none());
        assert!(tail(&[], 0.99).is_none());
    }

    #[test]
    fn large_samples_keep_the_requested_percentile() {
        let q = tail(&ramp(10_000), 0.99).unwrap();
        assert_eq!(q.value, 9900.0);
        assert_eq!(q.p, 0.99);
        assert_eq!(q.n, 10_000);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&ramp(4)).unwrap().value, 2.0);
        assert_eq!(median(&ramp(5)).unwrap().value, 3.0);
        assert_eq!(median(&[7.0]).unwrap().value, 7.0);
        assert!(median(&[]).is_none());
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
    }
}
