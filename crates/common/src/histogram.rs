//! Histograms for latency metrics and distribution comparisons.
//!
//! Two shapes are provided: [`Histogram`] with fixed-width buckets over a
//! known range (distribution veracity comparisons need aligned buckets on
//! both sides), and [`LogHistogram`] with exponentially growing buckets
//! (latencies span nanoseconds to seconds; the metrics layer reports
//! p50/p95/p99 from it).

/// A fixed-width-bucket histogram over `[lo, hi)`.
///
/// Out-of-range samples are clamped into the first/last bucket so that
/// `count` always equals the number of recorded samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram over `[lo, hi)` with `n` buckets.
    ///
    /// # Panics
    /// Panics when the range is empty or `n == 0`.
    pub fn with_bounds(lo: f64, hi: f64, n: usize) -> Self {
        assert!(lo < hi && n > 0, "bad histogram shape");
        Self {
            lo,
            hi,
            buckets: vec![0; n],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        let n = self.buckets.len();
        let idx = if x < self.lo {
            0
        } else if x >= self.hi {
            n - 1
        } else {
            (((x - self.lo) / (self.hi - self.lo)) * n as f64) as usize
        };
        self.buckets[idx.min(n - 1)] += 1;
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest recorded sample.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Bucket counts normalised to a probability vector.
    ///
    /// This is the input shape for the KL/JS divergence veracity metrics:
    /// build two histograms with identical bounds over the raw and the
    /// synthetic data, then compare their `pmf()`s.
    pub fn pmf(&self) -> Vec<f64> {
        if self.count == 0 {
            return vec![0.0; self.buckets.len()];
        }
        self.buckets
            .iter()
            .map(|&c| c as f64 / self.count as f64)
            .collect()
    }

    /// Approximate quantile via linear interpolation within the bucket.
    /// Both endpoints are exact: `quantile(0.0)` returns the smallest
    /// recorded sample and `quantile(1.0)` the largest, rather than a
    /// bucket edge that may overshoot the data. Interior estimates are
    /// clamped to the recorded `[min, max]` (interpolation inside the
    /// first/last occupied bucket would otherwise overshoot both), and an
    /// empty target bucket resolves to its left edge rather than its
    /// midpoint — together these keep the estimate monotonic in `q`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0.0;
        }
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        let target = q * self.count as f64;
        let mut acc = 0u64;
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            let next = acc + c;
            if next as f64 >= target {
                let within = if c == 0 {
                    0.0
                } else {
                    (target - acc as f64) / c as f64
                };
                let estimate = self.lo + (i as f64 + within) * width;
                return estimate.clamp(self.min, self.max);
            }
            acc = next;
        }
        self.max
    }

    /// Merge another histogram's samples into this one.
    ///
    /// Thread-local capture plus merge-at-quiesce is the aggregation
    /// shape concurrent drivers use, so merging must be exactly
    /// equivalent to recording every sample into one histogram — which
    /// requires identical bucket geometry on both sides.
    ///
    /// # Panics
    /// Panics when the two histograms' bounds or bucket counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo
                && self.hi == other.hi
                && self.buckets.len() == other.buckets.len(),
            "histogram merge needs identical bounds and bucket counts"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A log-bucketed histogram for non-negative samples (latencies in ns).
///
/// Bucket `i` covers `[2^i, 2^(i+1))` (bucket 0 also catches 0), giving
/// ~constant relative error across nine orders of magnitude with 64 buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { buckets: [0; 64], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Record one non-negative sample (e.g. nanoseconds).
    pub fn record(&mut self, x: u64) {
        let idx = 63u32.saturating_sub(x.leading_zeros()).min(63) as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += x as u128;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample (`u64::MAX` when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile: the arithmetic midpoint `lo + (hi - lo) / 2` of
    /// the power-of-two bucket `[lo, hi)` containing the q-th sample, so the
    /// estimate can be off by up to half the bucket width. It is not clamped
    /// to the observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                let lo = if i == 0 { 0u64 } else { 1u64 << i };
                let hi = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
                return lo + (hi - lo) / 2;
            }
        }
        self.max
    }

    /// Merge another histogram's samples into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_histogram_counts_and_moments() {
        let mut h = Histogram::with_bounds(0.0, 10.0, 10);
        for i in 0..10 {
            h.record(i as f64 + 0.5);
        }
        assert_eq!(h.count(), 10);
        assert!((h.mean() - 5.0).abs() < 1e-12);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 9.5);
        assert!(h.buckets().iter().all(|&c| c == 1));
    }

    #[test]
    fn fixed_histogram_clamps_out_of_range() {
        let mut h = Histogram::with_bounds(0.0, 1.0, 4);
        h.record(-5.0);
        h.record(99.0);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[3], 1);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn fixed_histogram_pmf_normalises() {
        let mut h = Histogram::with_bounds(0.0, 4.0, 4);
        h.record(0.5);
        h.record(0.6);
        h.record(2.5);
        let pmf = h.pmf();
        assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((pmf[0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fixed_histogram_median() {
        let mut h = Histogram::with_bounds(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64);
        }
        let med = h.quantile(0.5);
        assert!((med - 50.0).abs() < 2.0, "median {med}");
    }

    #[test]
    fn zero_quantile_is_the_minimum_not_a_bucket_midpoint() {
        // Regression: quantile(0.0) used to hit bucket 0's midpoint even
        // when every sample lived in higher buckets.
        let mut h = Histogram::with_bounds(0.0, 100.0, 10);
        h.record(73.0);
        h.record(88.0);
        assert_eq!(h.quantile(0.0), 73.0);
        // Still exact when bucket 0 is occupied but not at its midpoint.
        let mut g = Histogram::with_bounds(0.0, 100.0, 10);
        g.record(9.9);
        assert_eq!(g.quantile(0.0), 9.9);
    }

    #[test]
    fn one_quantile_is_the_maximum_not_a_bucket_edge() {
        // Regression: quantile(1.0) used to interpolate to the right edge
        // of the last occupied bucket — here 80.0, above the recorded max
        // of 73.0.
        let mut h = Histogram::with_bounds(0.0, 100.0, 10);
        h.record(73.0);
        assert_eq!(h.quantile(1.0), 73.0);
        // Overshoot also occurred with several samples in one bucket.
        let mut g = Histogram::with_bounds(0.0, 100.0, 10);
        g.record(41.0);
        g.record(42.0);
        g.record(44.0);
        assert_eq!(g.quantile(1.0), 44.0);
        assert!(g.quantile(0.99) <= g.quantile(1.0));
    }

    #[test]
    fn sparse_histogram_quantiles_are_monotonic_and_bounded() {
        // Regression: with a long run of empty buckets between two
        // occupied ones, interpolation could overshoot the recorded max
        // (and midpoint resolution of an empty target bucket could exceed
        // estimates for larger q). Every estimate must stay within the
        // recorded [min, max] and be monotonic in q.
        let mut h = Histogram::with_bounds(0.0, 100.0, 10);
        h.record(5.0);
        h.record(95.0);
        let mut prev = h.quantile(0.0);
        for q in 1..=100 {
            let cur = h.quantile(f64::from(q) / 100.0);
            assert!(prev <= cur, "quantile({}) = {prev} > quantile({q}%) = {cur}", q - 1);
            assert!((5.0..=95.0).contains(&cur), "quantile({q}%) = {cur} outside the data");
            prev = cur;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn quantiles_are_monotonic_in_q(
            samples in proptest::collection::vec(0u32..1000, 1..64),
            qs in proptest::collection::vec(0u32..=100, 2..8),
        ) {
            let mut h = Histogram::with_bounds(0.0, 1000.0, 16);
            for s in &samples {
                h.record(*s as f64);
            }
            let mut qs: Vec<f64> = qs.iter().map(|q| *q as f64 / 100.0).collect();
            qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for pair in qs.windows(2) {
                let (lo, hi) = (h.quantile(pair[0]), h.quantile(pair[1]));
                proptest::prop_assert!(
                    lo <= hi,
                    "quantile({}) = {} > quantile({}) = {}",
                    pair[0], lo, pair[1], hi
                );
            }
            // Endpoints are exact.
            proptest::prop_assert_eq!(h.quantile(0.0), h.min());
            proptest::prop_assert_eq!(h.quantile(1.0), h.max());
        }
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::with_bounds(0.0, 1.0, 4);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn log_histogram_orders_quantiles() {
        let mut h = LogHistogram::new();
        for i in 1..=1000u64 {
            h.record(i * 1000);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99);
        assert!(h.min() == 1000);
        assert!(h.max() == 1_000_000);
        assert!((h.mean() - 500_500.0).abs() < 1.0);
    }

    #[test]
    fn log_histogram_zero_sample() {
        let mut h = LogHistogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), 1); // midpoint of [0,2)
    }

    #[test]
    fn fixed_histogram_merge_equals_single_recording() {
        let mut merged = Histogram::with_bounds(0.0, 100.0, 20);
        let mut single = Histogram::with_bounds(0.0, 100.0, 20);
        let mut parts = vec![
            Histogram::with_bounds(0.0, 100.0, 20),
            Histogram::with_bounds(0.0, 100.0, 20),
            Histogram::with_bounds(0.0, 100.0, 20),
        ];
        for i in 0..300 {
            let x = (i as f64 * 7.31) % 100.0;
            single.record(x);
            parts[i % 3].record(x);
        }
        for p in &parts {
            merged.merge(p);
        }
        // The bucket distribution and extrema are exactly equal; the
        // running sum can differ by float addition order, so the mean
        // is compared within epsilon instead.
        assert_eq!(merged.count(), single.count());
        assert_eq!(merged.min(), single.min());
        assert_eq!(merged.max(), single.max());
        assert!((merged.mean() - single.mean()).abs() < 1e-9);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), single.quantile(q));
        }
    }

    #[test]
    fn fixed_histogram_merge_empty_is_identity() {
        let mut h = Histogram::with_bounds(0.0, 10.0, 4);
        h.record(3.0);
        let before = h.clone();
        h.merge(&Histogram::with_bounds(0.0, 10.0, 4));
        assert_eq!(h, before);
        // And merging into an empty histogram copies the other side.
        let mut empty = Histogram::with_bounds(0.0, 10.0, 4);
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    #[should_panic(expected = "identical bounds")]
    fn fixed_histogram_merge_rejects_mismatched_shape() {
        let mut a = Histogram::with_bounds(0.0, 10.0, 4);
        let b = Histogram::with_bounds(0.0, 20.0, 4);
        a.merge(&b);
    }

    #[test]
    fn log_histogram_merge() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_rejects_out_of_range() {
        let h = LogHistogram::new();
        let _ = h.quantile(1.5);
    }
}
