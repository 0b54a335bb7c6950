//! Order statistics for reported timings.

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples beyond it, or `None` when `n` is too small for any of them
/// (fewer than 40 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Nearest-rank percentile `p` (0–100) of `sorted`, ascending.
///
/// # Panics
/// On an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median and tail of a latency sample: `(p50, tail percentile, tail)`.
/// With too few samples for any ladder percentile the tail is the
/// maximum, reported as percentile 100.
pub fn summarize(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let p = tail_percentile(v.len()).unwrap_or(100.0);
    (median(&v), p, percentile(&v, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn summary_falls_back_to_max_for_small_samples() {
        let (p50, p, tail) = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!((p50, p, tail), (3.0, 100.0, 5.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (_, p, tail) = summarize(&v);
        assert_eq!((p, tail), (99.0, 990.0));
    }
}
