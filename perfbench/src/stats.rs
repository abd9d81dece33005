//! Order statistics with the benchmark's sample-count rule.

/// Nearest-rank percentile `p` (0 < p < 1) of `values`: the smallest
/// value with at least `p·n` values at or below it. Refused (`None`)
/// unless at least ten samples lie beyond it, so a reported tail is
/// never set by a handful of requests.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile: p must be in (0, 1)");
    let n = values.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n - rank < 10 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median (nearest rank) of any non-empty sample, with no tail rule.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len().div_ceil(2) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&short, 0.99), None, "only 9 samples beyond");
        assert_eq!(percentile(&thousand[..100], 0.5), Some(50.0));
        assert_eq!(percentile(&thousand[..19], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let values: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 0.99), Some(1979.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.0);
    }
}
