//! Log-linear latency histogram with bounded relative error.
//!
//! Values below `2^SUB_BITS` get one bucket each. Above that, every
//! power-of-two range `[2^k, 2^(k+1))` is split into `2^SUB_BITS` equal
//! sub-buckets, so a bucket is at most `2^-SUB_BITS` (3.1%) of its lower
//! edge wide; quantiles interpolate inside a bucket. The bucket array is allocated once; `record` never allocates.

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Enough buckets for every `u64`: the top range starts at `2^63`.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: vec![0; BUCKETS], total: 0, max: 0 }
    }
}

fn index_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (SUB as usize) * (shift as usize + 1) + ((v >> shift) - SUB) as usize
}

/// The lower edge and width of bucket `i`.
fn bounds_of(i: usize) -> (u64, u64) {
    let sub = SUB as usize;
    if i < sub {
        return (i as u64, 1);
    }
    let shift = (i / sub - 1) as u32;
    ((SUB + (i % sub) as u64) << shift, 1u64 << shift)
}

impl Histogram {
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    #[cfg(test)]
    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q`, interpolated linearly inside the
    /// bucket that holds that rank; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).clamp(0.5, self.total as f64);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (lower, width) = bounds_of(i);
                let f = (rank - below as f64) / c as f64;
                return (lower as f64 + f * width as f64).min(self.max as f64);
            }
            below += c;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::default();
        for v in 0..SUB {
            h.record(v);
        }
        assert!((15.0..=16.0).contains(&h.quantile(0.5)));
        assert_eq!(h.quantile(1.0), (SUB - 1) as f64);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let (lower, width) = bounds_of(index_of(v));
            assert!(lower <= v && v - lower < width, "{v} outside its bucket");
            assert!(
                width as f64 <= lower as f64 / SUB as f64 || width == 1,
                "{v}: bucket too wide"
            );
            v = v * 3 + 1;
        }
        assert!(index_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_resolve_within_a_bucket() {
        // Log2 buckets would report one edge for both; these must not.
        let mut h = Histogram::default();
        for _ in 0..50 {
            h.record(95);
        }
        for _ in 0..50 {
            h.record(180);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((93.0..=97.0).contains(&p50), "{p50}");
        assert!((176.0..=184.0).contains(&p99), "{p99}");
        assert_eq!(h.max(), 180);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert_eq!(a.max(), 1000);
        assert!(a.quantile(1.0) <= 1000.0 && a.quantile(1.0) >= 980.0);
    }
}
