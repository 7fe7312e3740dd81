//! Order statistics for latency samples.
//!
//! A percentile is only reported when the sample supports it: at least
//! ten samples must lie beyond it, otherwise a single outlier decides
//! the value. [`highest_supported`] picks the highest percentile of
//! [`LADDER`] that passes that test.

/// Reported percentiles, in basis points (5000 = p50, 9999 = p99.99).
pub const LADDER: [u32; 5] = [5000, 9000, 9900, 9990, 9999];

/// Samples required beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Index of the nearest-rank percentile `bp` (basis points) in a sorted
/// sample of `n`: the smallest rank covering `bp / 10000` of the sample.
fn rank(n: usize, bp: u32) -> usize {
    let covered = (n * bp as usize).div_ceil(10_000);
    covered.max(1) - 1
}

/// Samples strictly above the nearest-rank percentile `bp` of `n`.
pub fn beyond(n: usize, bp: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, bp)
    }
}

/// The highest percentile of [`LADDER`] (basis points) with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even p50 lacks them.
pub fn highest_supported(n: usize) -> Option<u32> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&bp| beyond(n, bp) >= MIN_BEYOND)
}

/// Nearest-rank percentile `bp` (basis points) of an ascending sample.
/// `NaN` for an empty sample.
pub fn percentile(sorted: &[f64], bp: u32) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), bp)]
}

/// Sorts a sample ascending (total order, so NaNs cannot panic).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_unstable_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 5000)
}

/// Arithmetic mean (`0` for an empty sample: "no work of this kind").
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Human label of a basis-point percentile (`9990` → `"p99.9"`).
pub fn label(bp: u32) -> String {
    let whole = bp / 100;
    let frac = bp % 100;
    if frac == 0 {
        format!("p{whole}")
    } else if frac.is_multiple_of(10) {
        format!("p{whole}.{}", frac / 10)
    } else {
        format!("p{whole}.{frac:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_highest_percentile_with_ten_samples_beyond_is_supported() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None, "p50 of 19 leaves 9 beyond");
        assert_eq!(highest_supported(20), Some(5000));
        assert_eq!(highest_supported(99), Some(5000));
        assert_eq!(highest_supported(100), Some(9000));
        assert_eq!(highest_supported(999), Some(9000));
        assert_eq!(highest_supported(1_000), Some(9900));
        assert_eq!(highest_supported(9_999), Some(9900));
        assert_eq!(highest_supported(10_000), Some(9990));
        assert_eq!(highest_supported(99_999), Some(9990));
        assert_eq!(highest_supported(100_000), Some(9999));
        for n in [20, 100, 1_000, 10_000, 100_000, 250_000] {
            let bp = highest_supported(n).expect("supported");
            assert!(beyond(n, bp) >= MIN_BEYOND, "n={n}");
            if let Some(&next) = LADDER.iter().find(|&&p| p > bp) {
                assert!(beyond(n, next) < MIN_BEYOND, "n={n} also supports {next}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 5000), 50.0);
        assert_eq!(percentile(&sample, 9000), 90.0);
        assert_eq!(percentile(&sample, 9900), 99.0);
        assert_eq!(beyond(100, 9000), 10);
        assert!(percentile(&[], 5000).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(label(9990), "p99.9");
        assert_eq!(label(9999), "p99.99");
        assert_eq!(label(5000), "p50");
    }
}
