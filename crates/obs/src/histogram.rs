//! Log₂-bucketed histogram for latencies and candidate counts.

/// A histogram with one bucket per power of two: bucket 0 holds the value
/// 0, bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`. 65 buckets cover
/// the full `u64` range, so recording never saturates or loses samples;
/// quantiles are resolved to the upper bound of the containing bucket
/// (deterministic, and never an underestimate — safe for p99 reporting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// Bucket index for `value`: 0 for 0, else `⌊log₂ value⌋ + 1`.
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded, exact (not bucket-rounded).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0 < q ≤ 1`), resolved to the upper bound of the
    /// bucket containing the ⌈q·count⌉-th smallest sample, clamped to the
    /// exact max. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let mut h = Log2Histogram::new();
        // 90 samples of 1, 9 of ~1000, 1 of ~1_000_000.
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..9 {
            h.record(1000);
        }
        h.record(1_000_000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), 1);
        // p90 lands on the 90th sample (value 1).
        assert_eq!(h.quantile(0.90), 1);
        // p91..p99 land in the 1000 bucket → upper bound 1023.
        assert_eq!(h.quantile(0.99), 1023);
        // p100 = the exact max, not the bucket bound.
        assert_eq!(h.quantile(1.0), 1_000_000);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.sum(), 90 + 9000 + 1_000_000);
    }

    #[test]
    fn quantile_clamped_to_max() {
        let mut h = Log2Histogram::new();
        h.record(5); // bucket upper bound is 7, but max is 5
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(1.0), 5);
    }

    #[test]
    fn empty_histogram() {
        let h = Log2Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn zeros_are_their_own_bucket() {
        let mut h = Log2Histogram::new();
        for _ in 0..3 {
            h.record(0);
        }
        h.record(8);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 8);
    }

    #[test]
    fn empty_histogram_percentiles_are_zero_for_all_q() {
        let h = Log2Histogram::new();
        for q in [0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
    }

    #[test]
    fn u64_max_saturates_top_bucket_and_sum() {
        let mut h = Log2Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        // All three land in bucket 64, whose upper bound is u64::MAX.
        assert_eq!(h.buckets[64], 3);
        assert_eq!(h.quantile(0.5), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        // The sum saturates instead of wrapping.
        assert_eq!(h.sum(), u64::MAX);
        let mut other = Log2Histogram::new();
        other.record(u64::MAX);
        h.merge(&other);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn merge_combines_counts_and_max() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        for _ in 0..10 {
            a.record(1);
        }
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 11);
        assert_eq!(a.max(), 100);
        assert_eq!(a.quantile(0.5), 1);
        assert_eq!(a.sum(), 110);
    }
}
