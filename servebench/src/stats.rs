//! Order statistics for latency samples and per-window rates.
//!
//! Percentiles use the nearest-rank rule: the `p`-th percentile of `n`
//! sorted samples is the sample at 1-based rank `ceil(p·n)`. A percentile
//! is only reported when at least [`MIN_BEYOND`] samples lie beyond it, so
//! a tail figure never rests on a handful of requests.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder, in basis points (p50, p90, p99, p99.9, p99.99).
pub const LADDER_BP: [u32; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// 1-based nearest rank of the `bp` basis-point percentile among `n`
/// samples (integer arithmetic, so p99 of 1000 samples is exactly rank 990).
pub fn rank(n: usize, bp: u32) -> usize {
    let scaled = n as u64 * u64::from(bp);
    (scaled.div_ceil(10_000) as usize).max(1)
}

/// Samples strictly beyond the `bp` percentile among `n` samples.
pub fn beyond(n: usize, bp: u32) -> usize {
    n.saturating_sub(rank(n, bp))
}

/// The `bp` percentile of ascending `sorted` samples.
///
/// # Panics
///
/// On an empty slice.
pub fn percentile(sorted: &[u64], bp: u32) -> u64 {
    sorted[rank(sorted.len(), bp) - 1]
}

/// The highest ladder percentile that leaves at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median does not.
pub fn highest_supported(n: usize) -> Option<u32> {
    LADDER_BP
        .iter()
        .rev()
        .copied()
        .find(|&bp| beyond(n, bp) >= MIN_BEYOND)
}

/// Renders a basis-point percentile as `p50`, `p99`, `p99.9`, ...
pub fn label(bp: u32) -> String {
    let whole = bp / 100;
    let frac = bp % 100;
    match frac {
        0 => format!("p{whole}"),
        f if f % 10 == 0 => format!("p{whole}.{}", f / 10),
        f => format!("p{whole}.{f:02}"),
    }
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// On an empty slice or a NaN value.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("medians are taken over numbers"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_uses_exact_integer_ranks() {
        assert_eq!(rank(1000, 9_900), 990);
        assert_eq!(rank(1001, 9_900), 991);
        assert_eq!(rank(100, 5_000), 50);
        assert_eq!(rank(1, 9_999), 1);
        assert_eq!(rank(0, 5_000), 1);
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 5_000), 500);
        assert_eq!(percentile(&sorted, 9_900), 990);
        assert_eq!(percentile(&sorted, 9_990), 999);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(beyond(1000, 9_900), 10);
        assert_eq!(highest_supported(1000), Some(9_900));
        // One sample fewer and p99 leaves 9 beyond, so p90 is the highest.
        assert_eq!(beyond(999, 9_900), 9);
        assert_eq!(highest_supported(999), Some(9_000));
        assert_eq!(highest_supported(10_000), Some(9_990));
        assert_eq!(highest_supported(100_000), Some(9_999));
        assert_eq!(highest_supported(20), Some(5_000));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn labels_render_basis_points() {
        assert_eq!(label(5_000), "p50");
        assert_eq!(label(9_900), "p99");
        assert_eq!(label(9_990), "p99.9");
        assert_eq!(label(9_999), "p99.99");
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }
}
