//! The benchmark's own arithmetic over raw samples.
//!
//! Every statistic the benchmark reports is computed here from the raw
//! samples it recorded, never from the program's histograms, so a change
//! to the program's measurement code cannot move the benchmark's numbers.

/// Percentiles the benchmark may report as a tail, highest first, in
/// hundredths of a percent (9_990 is p99.9). Integer ranks keep the
/// nearest-rank arithmetic exact.
pub const TAIL_LADDER: [u64; 5] = [9_999, 9_990, 9_900, 9_000, 5_000];

/// Samples a percentile must have beyond it before it is reported as the
/// tail of a distribution.
pub const MIN_BEYOND: usize = 10;

/// The median: the middle sample for an odd count, the mean of the two
/// middle samples for an even count. `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The 1-based nearest rank of percentile `p` (hundredths of a percent)
/// among `n` samples: the smallest rank with at least `p` of the samples
/// at or below it.
pub fn nearest_rank(n: usize, p: u64) -> usize {
    let n = n as u64;
    (p * n).div_ceil(10_000).clamp(1, n.max(1)) as usize
}

/// The exact nearest-rank percentile `p` (hundredths of a percent) of
/// ascending `sorted` samples. `None` for no samples.
pub fn percentile(sorted: &[f64], p: u64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median has fewer.
pub fn highest_supported(n: usize) -> Option<u64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(nearest_rank(n, p)) >= MIN_BEYOND)
}

/// Renders a ladder percentile as its usual name: 9_990 → "p99.9".
pub fn percentile_name(p: u64) -> String {
    let whole = p / 100;
    match p % 100 {
        0 => format!("p{whole}"),
        frac if frac % 10 == 0 => format!("p{whole}.{}", frac / 10),
        frac => format!("p{whole}.{frac:02}"),
    }
}

/// A span's self time: its length minus the part of it that the union
/// of `children` covers. Children are clipped to the span, and time
/// that several children cover is subtracted once.
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (lo, hi) = span;
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut run: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0, 5.0]), Some(5.0));
    }

    #[test]
    fn nearest_rank_percentiles_match_hand_computed_cases() {
        let ten = one_to(10);
        assert_eq!(percentile(&ten, 5_000), Some(5.0));
        assert_eq!(percentile(&ten, 9_000), Some(9.0));
        // ceil(0.99 * 10) = 10: the top sample.
        assert_eq!(percentile(&ten, 9_900), Some(10.0));
        let hundred = one_to(100);
        assert_eq!(percentile(&hundred, 9_900), Some(99.0));
        assert_eq!(percentile(&hundred, 5_000), Some(50.0));
        // ceil(0.999 * 100) = 100.
        assert_eq!(percentile(&hundred, 9_990), Some(100.0));
        let thousand_one = one_to(1_001);
        // ceil(0.99 * 1001) = ceil(990.99) = 991.
        assert_eq!(percentile(&thousand_one, 9_900), Some(991.0));
        assert_eq!(percentile(&[42.0], 9_999), Some(42.0));
        assert_eq!(percentile(&[], 5_000), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // p99 of 1000 sits at rank 990, leaving exactly 10 beyond.
        assert_eq!(highest_supported(1_000), Some(9_900));
        // p99 of 999 sits at rank 990, leaving 9: fall back to p90.
        assert_eq!(highest_supported(999), Some(9_000));
        assert_eq!(highest_supported(10_000), Some(9_990));
        assert_eq!(highest_supported(100_000), Some(9_999));
        // The median of 20 sits at rank 10, leaving 10 beyond.
        assert_eq!(highest_supported(20), Some(5_000));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn percentile_names() {
        assert_eq!(percentile_name(9_999), "p99.99");
        assert_eq!(percentile_name(9_990), "p99.9");
        assert_eq!(percentile_name(9_900), "p99");
        assert_eq!(percentile_name(5_000), "p50");
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 3.0), (7.0, 8.0)]), 7.0);
        // [1,3] and [2,5] overlap: together they cover 4, not 5.
        assert_eq!(
            self_time((0.0, 10.0), &[(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]),
            5.0
        );
        // A child nested in another is counted once.
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 9.0), (2.0, 3.0)]), 2.0);
        // Children are clipped to the span.
        assert_eq!(self_time((2.0, 6.0), &[(0.0, 3.0), (5.0, 9.0)]), 2.0);
        // Touching children leave no gap.
        assert_eq!(self_time((0.0, 4.0), &[(0.0, 2.0), (2.0, 4.0)]), 0.0);
    }
}
