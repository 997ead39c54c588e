//! Order statistics over latency samples.

/// The `p`-quantile (`0.0 ≤ p ≤ 1.0`) of ascending `sorted`, linearly
/// interpolated between the two nearest ranks. An empty slice reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted {
        [] => 0.0,
        [only] => *only,
        _ => {
            let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sort samples ascending (latencies are finite, so total order holds).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_unstable_by(f64::total_cmp);
    samples
}

/// The median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 0.5), 30.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert_eq!(percentile(&v, 0.125), 15.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
