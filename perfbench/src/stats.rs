//! Summary statistics shared by every workload: nearest-rank
//! percentiles, the tail rule and geometric means.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` percent of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that still has
/// at least ten samples beyond it. Returns `(value, percentile,
/// samples)`. With ten or fewer samples no percentile qualifies, so the
/// maximum is returned with its percentile reported as 100.
pub fn tail(sorted: &[f64]) -> (f64, f64, usize) {
    let n = sorted.len();
    assert!(n > 0, "tail of an empty sample");
    if n <= 10 {
        return (sorted[n - 1], 100.0, n);
    }
    // The value at 1-based rank n-10 has exactly ten samples above it;
    // its nearest-rank percentile is 100·(n-10)/n.
    let rank = n - 10;
    (sorted[rank - 1], 100.0 * rank as f64 / n as f64, n)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty sample");
    assert!(
        values.iter().all(|v| *v > 0.0),
        "geomean needs positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, n) = tail(&v);
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(n, 100);
        assert_eq!(v.iter().filter(|x| **x > value).count(), 10);

        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (value, pct, _) = tail(&v);
        assert_eq!(value, 990.0);
        assert_eq!(pct, 99.0);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(tail(&v), (3.0, 100.0, 3));
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v).0, 1.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
