//! Order statistics used by every report: median, quartiles, and the
//! "highest percentile that still has ten samples beyond it" rule.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them — the acceptance check for this benchmark is stated in
/// those terms, so the harness reproduces them bit for bit. A single
/// sample has no spread: both quartiles are that sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median — the "spread" every
/// bound in `BENCHMARK.json` is judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Nearest-rank percentile `p` in `(0, 100]` of the samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the conventional tail percentiles (50, 75, 90, 95, 99)
/// that still has at least [`TAIL_SAMPLES_BEYOND`] samples beyond it in a
/// sample of `n`; `None` when even the median does not.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75, 50]
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= TAIL_SAMPLES_BEYOND * 100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,...,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(quartiles(&[50.0, 10.0, 30.0, 20.0, 40.0]), (15.0, 45.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(9), None);
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(40), Some(75));
        assert_eq!(highest_supported_percentile(99), Some(75));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(199), Some(90));
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(1000), Some(99));
    }
}
