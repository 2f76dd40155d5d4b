//! Geometric (power-of-two) histograms.
//!
//! The Next-Use monitor records per-PC distributions of Next-Use distances.
//! Distances span several orders of magnitude, so buckets grow
//! geometrically: bucket `i` covers `[2^(i-1), 2^i)` for `i >= 1`, and
//! bucket 0 covers the single value 0. The structure supports the two
//! queries the PC-selection algorithm needs: total mass and mass at or
//! below a threshold (with linear interpolation inside the boundary
//! bucket).

use alloc::vec;
use alloc::vec::Vec;

/// A histogram with power-of-two bucket boundaries over `u64` samples.
///
/// # Examples
///
/// ```
/// use nucache_common::Log2Histogram;
/// let mut h = Log2Histogram::new(16);
/// h.record(3);
/// h.record(100);
/// assert_eq!(h.total(), 2);
/// assert_eq!(h.count_le(10), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: Vec<u64>,
    total: u64,
    overflow: u64,
}

impl Log2Histogram {
    /// Creates a histogram with `num_buckets` buckets. Samples of
    /// `2^(num_buckets-1)` or more land in a dedicated overflow counter.
    ///
    /// # Panics
    ///
    /// Panics if `num_buckets` is 0 or greater than 64.
    pub fn new(num_buckets: usize) -> Self {
        assert!(num_buckets > 0 && num_buckets <= 64, "bucket count must be in 1..=64");
        // audit:allow-alloc(bucket vector sized once at construction; hot-path callers construct lazily per class)
        Log2Histogram { buckets: vec![0; num_buckets], total: 0, overflow: 0 }
    }

    /// Number of regular (non-overflow) buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Index of the bucket a sample falls into, or `None` for overflow.
    fn bucket_of(&self, sample: u64) -> Option<usize> {
        let idx = if sample == 0 { 0 } else { 64 - (sample.leading_zeros() as usize) };
        if idx < self.buckets.len() {
            Some(idx)
        } else {
            None
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        match self.bucket_of(sample) {
            Some(i) => self.buckets[i] += 1,
            None => self.overflow += 1,
        }
        self.total += 1;
    }

    /// Records `weight` identical samples.
    pub fn record_n(&mut self, sample: u64, weight: u64) {
        match self.bucket_of(sample) {
            Some(i) => self.buckets[i] += weight,
            None => self.overflow += weight,
        }
        self.total += weight;
    }

    /// Total number of recorded samples (including overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples that exceeded the largest bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Raw bucket counts (excluding overflow). Bucket `i >= 1` covers
    /// `[2^(i-1), 2^i)`; bucket 0 holds zeros.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Estimated number of samples `<= threshold`.
    ///
    /// Buckets entirely at or below the threshold count fully; the bucket
    /// containing the threshold contributes a linearly interpolated share.
    /// This is the quantity the cost-benefit selector uses as "hits gained
    /// if retained for `threshold` more accesses".
    pub fn count_le(&self, threshold: u64) -> u64 {
        let mut acc = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            let (lo, hi) = Self::bucket_range(i);
            if hi <= threshold {
                acc += count;
            } else if lo <= threshold {
                // Partial bucket: interpolate. Bucket spans [lo, hi).
                let span = hi - lo;
                let covered = threshold - lo + 1;
                acc += count * covered / span;
            } else {
                break;
            }
        }
        acc
    }

    /// `[lo, hi)` value range of bucket `i` (bucket 0 is `[0,1)`).
    fn bucket_range(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 1)
        } else {
            (1u64 << (i - 1), 1u64 << i)
        }
    }

    /// Empties the histogram.
    pub fn clear(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.total = 0;
        self.overflow = 0;
    }

    /// Halves every counter (including overflow), used for exponential
    /// decay across selection epochs so stale behaviour ages out.
    pub fn decay(&mut self) {
        let mut new_total = self.overflow / 2;
        self.overflow /= 2;
        for b in &mut self.buckets {
            *b /= 2;
            new_total += *b;
        }
        self.total = new_total;
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket counts differ.
    pub fn merge(&mut self, other: &Log2Histogram) {
        assert_eq!(self.buckets.len(), other.buckets.len(), "bucket count mismatch");
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
    }

    /// Lower edge of the overflow region: samples of this value or more
    /// land in the overflow counter rather than a regular bucket. This
    /// is the saturating value [`quantile`](Self::quantile) reports when
    /// the requested quantile falls in overflow.
    pub fn overflow_edge(&self) -> u64 {
        1u64 << (self.buckets.len() - 1)
    }

    /// Approximate p-quantile of the distribution (`0.0..=1.0`, clamped),
    /// using the upper edge of the bucket where the quantile falls.
    ///
    /// Returns `None` only for an empty histogram. When the quantile
    /// lands in the overflow region the result **saturates** to
    /// [`overflow_edge`](Self::overflow_edge) — a lower bound on the true
    /// value — rather than dropping the tail: a p99 that silently
    /// returned `None` for overflowing latencies would hide exactly the
    /// samples it exists to surface. `p = 0.0` reports the first
    /// non-empty bucket's edge (the minimum sample's bucket); `p = 1.0`
    /// reports the last non-empty bucket's edge, or the overflow edge if
    /// any sample overflowed.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        // Integer ceiling of `p * total`, spelled out because `f64::ceil`
        // lives in std and this crate also builds for `no_std` targets.
        let scaled = p.clamp(0.0, 1.0) * self.total as f64;
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "scaled lies in [0, total], which u64 holds"
        )]
        let trunc = scaled as u64;
        let ceil = if scaled > trunc as f64 { trunc + 1 } else { trunc };
        // At least one sample must be covered, so p = 0.0 lands on the
        // minimum sample's bucket instead of an unconditional bucket 0.
        let target = ceil.max(1);
        let mut acc = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            acc += count;
            if acc >= target {
                return Some(Self::bucket_range(i).1 - 1);
            }
        }
        Some(self.overflow_edge())
    }
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram::new(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_goes_to_bucket_zero() {
        let mut h = Log2Histogram::new(8);
        h.record(0);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.count_le(0), 1);
    }

    #[test]
    fn bucket_boundaries() {
        let mut h = Log2Histogram::new(8);
        h.record(1); // bucket 1: [1,2)
        h.record(2); // bucket 2: [2,4)
        h.record(3); // bucket 2
        h.record(4); // bucket 3: [4,8)
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 2);
        assert_eq!(h.buckets()[3], 1);
    }

    #[test]
    fn overflow_counts_in_total() {
        let mut h = Log2Histogram::new(4); // largest bucket [4,8)
        h.record(8);
        h.record(1_000_000);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 2);
        assert_eq!(h.count_le(u64::MAX), 0, "overflow never counted as covered");
    }

    #[test]
    fn count_le_full_and_partial() {
        let mut h = Log2Histogram::new(16);
        h.record_n(10, 100); // bucket 4: [8,16)
        assert_eq!(h.count_le(7), 0);
        assert_eq!(h.count_le(15), 100);
        let partial = h.count_le(11);
        assert!(partial > 0 && partial < 100, "interpolated share expected, got {partial}");
    }

    #[test]
    fn decay_halves_mass() {
        let mut h = Log2Histogram::new(8);
        h.record_n(3, 10);
        h.record_n(1000, 5); // beyond bucket 7's [64,128): overflow
        h.decay();
        assert_eq!(h.buckets()[2], 5);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn merge_adds_mass() {
        let mut a = Log2Histogram::new(8);
        let mut b = Log2Histogram::new(8);
        a.record(5);
        b.record(5);
        b.record(6);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.buckets()[3], 3);
    }

    #[test]
    fn quantile_sane() {
        let mut h = Log2Histogram::new(16);
        h.record_n(4, 50);
        h.record_n(1000, 50);
        let q25 = h.quantile(0.25).unwrap();
        let q90 = h.quantile(0.9).unwrap();
        assert!(q25 < q90);
        assert!(h.quantile(0.0).is_some());
        assert!(Log2Histogram::new(4).quantile(0.5).is_none());
    }

    #[test]
    fn quantile_p0_reports_the_minimum_samples_bucket() {
        let mut h = Log2Histogram::new(16);
        h.record_n(100, 10); // bucket 7: [64,128)
        assert_eq!(h.quantile(0.0), Some(127), "p=0 must not report empty bucket 0");
        assert_eq!(h.quantile(1.0), Some(127));
    }

    #[test]
    fn quantile_saturates_into_overflow() {
        let mut h = Log2Histogram::new(4); // regular buckets cover [0,8); overflow edge 8
        assert_eq!(h.overflow_edge(), 8);
        h.record_n(2, 90);
        h.record_n(1_000_000, 10); // overflow
                                   // p50 sits in the regular mass; p99 lands in overflow and must
                                   // saturate to the overflow lower edge instead of vanishing.
        assert_eq!(h.quantile(0.5), Some(3));
        assert_eq!(h.quantile(0.99), Some(8));
        assert_eq!(h.quantile(1.0), Some(8));
        // All-overflow distribution: every quantile saturates.
        let mut all_over = Log2Histogram::new(4);
        all_over.record(5_000);
        assert_eq!(all_over.quantile(0.0), Some(8));
        assert_eq!(all_over.quantile(1.0), Some(8));
        // Out-of-range p clamps rather than panicking or escaping.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }

    #[test]
    fn clear_resets() {
        let mut h = Log2Histogram::new(8);
        h.record_n(3, 7);
        h.clear();
        assert_eq!(h.total(), 0);
        assert!(h.buckets().iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "bucket count")]
    fn zero_buckets_rejected() {
        let _ = Log2Histogram::new(0);
    }
}
