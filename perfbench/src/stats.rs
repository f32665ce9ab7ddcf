//! Order statistics over timing samples.

/// Percentiles the tail helper may report, lowest first.
const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples a reported percentile must leave above it to be worth reporting.
const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n` samples.  The
/// tolerance keeps `99.9% of 10,000` at rank 9,990 despite rounding.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100) of `sorted`, which must be ascending
/// and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()) - 1]
}

/// Median of `values` (any order); `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] samples above its nearest-rank position, with its value.
/// `None` when there are too few samples even for the median.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| n > 0 && n - rank(p, n) >= MIN_BEYOND)
        .map(|&p| (p, percentile(&sorted, p)))
}

/// Formats a ladder percentile as a metric-name fragment: `99` → `p99`,
/// `99.9` → `p99.9`.
pub fn percentile_label(p: f64) -> String {
    if p.fract() == 0.0 {
        format!("p{}", p as u64)
    } else {
        format!("p{}", p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_samples_beyond() {
        let samples = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // 2,000 samples: p99 sits at rank 1,980 and leaves 20 above it; p99.9
        // would leave only 2.
        assert_eq!(tail(&samples(2000)), Some((99.0, 1980.0)));
        // Exactly 1,000: p99 leaves exactly 10 above — still allowed.
        assert_eq!(tail(&samples(1000)), Some((99.0, 990.0)));
        // 999: p99 leaves 9, so fall back to p90 (rank 900, 99 above).
        assert_eq!(tail(&samples(999)).map(|t| t.0), Some(90.0));
        // 10,000: p99.9 leaves exactly 10.
        assert_eq!(tail(&samples(10_000)).map(|t| t.0), Some(99.9));
        // 20 samples: only the median leaves ten above.
        assert_eq!(tail(&samples(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&samples(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut shuffled: Vec<f64> = (1..=2000).map(|i| ((i * 7919) % 2000) as f64).collect();
        shuffled.reverse();
        assert_eq!(tail(&shuffled), Some((99.0, 1979.0)));
    }

    #[test]
    fn percentile_labels() {
        assert_eq!(percentile_label(99.0), "p99");
        assert_eq!(percentile_label(99.9), "p99.9");
        assert_eq!(percentile_label(50.0), "p50");
    }
}
