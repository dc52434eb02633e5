//! Percentiles and the sample-count rule.

/// Samples needed before a p99 is reported: 1000 samples leave ten beyond
/// the 99th percentile.
pub const P99_MIN_SAMPLES: usize = 1000;

/// Nearest-rank percentile of `samples` (any order): the smallest value with
/// at least `p`% of the samples at or below it. `None` when empty.
pub fn percentile(samples: &[u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median, or `None` without samples.
pub fn p50(samples: &[u64]) -> Option<u64> {
    percentile(samples, 50.0)
}

/// The 99th percentile, or `None` with fewer than [`P99_MIN_SAMPLES`].
pub fn p99(samples: &[u64]) -> Option<u64> {
    if samples.len() < P99_MIN_SAMPLES {
        return None;
    }
    percentile(samples, 99.0)
}

/// Median of floating-point measurements (mean of the middle two for an
/// even count). `None` when empty.
pub fn median_f64(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// `num / den`, or 0 when `den` is 0 (a count that never happened).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(percentile(&s, 50.0), Some(5));
        assert_eq!(percentile(&s, 90.0), Some(9));
        assert_eq!(percentile(&s, 91.0), Some(10));
        assert_eq!(percentile(&s, 100.0), Some(10));
        assert_eq!(percentile(&s, 0.0), Some(1));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(p50(&[3, 1, 2, 4]), Some(2));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let short: Vec<u64> = (0..999).collect();
        assert_eq!(p99(&short), None);
        assert_eq!(p50(&short), Some(499));
        let enough: Vec<u64> = (1..=1000).collect();
        // Ten samples (991..=1000) lie beyond the reported value.
        assert_eq!(p99(&enough), Some(990));
    }

    #[test]
    fn medians_and_ratios() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median_f64(&[]), None);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
