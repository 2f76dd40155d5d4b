//! Sampled shadow tag directories and UCP's UMON utility monitor.
//!
//! A shadow (auxiliary) tag directory tracks what a cache *would* contain
//! if one core had it all to itself under LRU. UMON adds per-recency-rank
//! hit counters, which yield the core's utility curve: how many extra hits
//! each additional way would capture. UCP's lookahead partitioning
//! consumes those curves.
//!
//! Keeping a full shadow directory per core is expensive; the standard
//! remedy — implemented here — is *dynamic set sampling*: only every
//! `sample_shift`-th set is tracked, and counts are scaled up by the
//! sampling factor when read.

use crate::config::CacheGeometry;
use nucache_common::LineAddr;

/// A set-sampled, fully-LRU shadow tag directory with per-rank hit
/// counters (UMON-DSS).
///
/// # Examples
///
/// ```
/// use nucache_cache::shadow::UtilityMonitor;
/// use nucache_cache::CacheGeometry;
/// use nucache_common::LineAddr;
///
/// let geom = CacheGeometry::new(64 * 16 * 256, 16, 64);
/// let mut umon = UtilityMonitor::new(&geom, 0); // sample every set
/// umon.observe(LineAddr::new(3));
/// umon.observe(LineAddr::new(3));
/// assert_eq!(umon.hits_at_rank()[0], 1);
/// ```
#[derive(Debug, Clone)]
pub struct UtilityMonitor {
    assoc: usize,
    set_bits: u32,
    sample_shift: u32,
    // tags[sampled_set * assoc + way]; stamp for LRU rank.
    tags: Vec<Option<u64>>,
    stamps: Vec<u64>,
    stamp: u64,
    hits_at_rank: Vec<u64>,
    misses: u64,
    accesses: u64,
}

impl UtilityMonitor {
    /// Creates a monitor for caches shaped like `geom`, sampling one set
    /// in `2^sample_shift`.
    ///
    /// # Panics
    ///
    /// Panics if the sampling leaves no sets.
    pub fn new(geom: &CacheGeometry, sample_shift: u32) -> Self {
        let sampled_sets = geom.num_sets() >> sample_shift;
        assert!(sampled_sets > 0, "sampling eliminates every set");
        let assoc = geom.associativity();
        UtilityMonitor {
            assoc,
            set_bits: geom.set_bits(),
            sample_shift,
            tags: vec![None; sampled_sets * assoc],
            stamps: vec![0; sampled_sets * assoc],
            stamp: 0,
            hits_at_rank: vec![0; assoc],
            misses: 0,
            accesses: 0,
        }
    }

    /// The sampling factor (counts scale by this when read).
    pub fn scale(&self) -> u64 {
        1 << self.sample_shift
    }

    fn sampled_index(&self, line: LineAddr) -> Option<usize> {
        let set = line.set_index(self.set_bits);
        if set & ((1usize << self.sample_shift) - 1) != 0 {
            return None;
        }
        Some(set >> self.sample_shift)
    }

    /// Feeds one access from the owning core.
    ///
    /// Returns the LRU rank the access hit at (`None` on a shadow miss).
    pub fn observe(&mut self, line: LineAddr) -> Option<usize> {
        let sset = self.sampled_index(line)?;
        self.accesses += 1;
        let tag = line.tag(self.set_bits);
        let base = sset * self.assoc;
        let frames = base..base + self.assoc;
        self.stamp += 1;
        if let Some(way) = frames.clone().position_in(&self.tags, tag) {
            // Rank before promotion: how many ways are younger.
            let mine = self.stamps[base + way];
            let rank = (0..self.assoc)
                .filter(|&w| {
                    w != way && self.stamps[base + w] > mine && self.tags[base + w].is_some()
                })
                .count();
            self.hits_at_rank[rank] += 1;
            self.stamps[base + way] = self.stamp;
            return Some(rank);
        }
        self.misses += 1;
        // Fill: pick an invalid frame, else the LRU one.
        #[expect(clippy::expect_used, reason = "geometries have non-zero associativity")]
        let way = (0..self.assoc).find(|&w| self.tags[base + w].is_none()).unwrap_or_else(|| {
            (0..self.assoc).min_by_key(|&w| self.stamps[base + w]).expect("assoc > 0")
        });
        self.tags[base + way] = Some(tag);
        self.stamps[base + way] = self.stamp;
        None
    }

    /// Hits observed at each LRU rank (rank 0 = MRU), unscaled.
    pub fn hits_at_rank(&self) -> &[u64] {
        &self.hits_at_rank
    }

    /// Shadow misses observed, unscaled.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Accesses observed in sampled sets, unscaled.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Utility curve: `curve[w]` estimates total hits (scaled) this core
    /// would get with `w` ways. `curve[0] = 0`; the curve is
    /// non-decreasing.
    pub fn utility_curve(&self) -> Vec<u64> {
        let mut curve = Vec::with_capacity(self.assoc + 1);
        curve.push(0);
        let mut acc = 0u64;
        for &h in &self.hits_at_rank {
            acc += h * self.scale();
            curve.push(acc);
        }
        curve
    }

    /// Halves all counters (epoch decay).
    pub fn decay(&mut self) {
        self.hits_at_rank.iter_mut().for_each(|h| *h /= 2);
        self.misses /= 2;
        self.accesses /= 2;
    }

    /// Clears counters (contents retained).
    pub fn reset_counters(&mut self) {
        self.hits_at_rank.iter_mut().for_each(|h| *h = 0);
        self.misses = 0;
        self.accesses = 0;
    }
}

/// Extension used by [`UtilityMonitor::observe`] to keep the tag-scan
/// readable.
trait PositionIn {
    fn position_in(self, tags: &[Option<u64>], tag: u64) -> Option<usize>;
}

impl PositionIn for std::ops::Range<usize> {
    fn position_in(self, tags: &[Option<u64>], tag: u64) -> Option<usize> {
        let start = self.start;
        self.clone().find(|&i| tags[i] == Some(tag)).map(|i| i - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(sets: u64, assoc: usize) -> CacheGeometry {
        CacheGeometry::new(64 * assoc as u64 * sets, assoc, 64)
    }

    #[test]
    fn rank_zero_for_immediate_reuse() {
        let g = geom(4, 4);
        let mut m = UtilityMonitor::new(&g, 0);
        assert_eq!(m.observe(LineAddr::new(0)), None);
        assert_eq!(m.observe(LineAddr::new(0)), Some(0));
    }

    #[test]
    fn ranks_reflect_stack_depth() {
        let g = geom(1, 4);
        let mut m = UtilityMonitor::new(&g, 0);
        for n in 0..4 {
            m.observe(LineAddr::new(n));
        }
        // Line 0 is now at rank 3.
        assert_eq!(m.observe(LineAddr::new(0)), Some(3));
        // Line 1 slipped to rank 3 after 0's promotion? No: ranks after
        // promotion of 0: [0,3,2,1] -> line 1 sits at rank 3.
        assert_eq!(m.observe(LineAddr::new(1)), Some(3));
    }

    #[test]
    fn utility_curve_monotone_and_scaled() {
        let g = geom(4, 2);
        let mut m = UtilityMonitor::new(&g, 1); // sample half the sets
        for _ in 0..10 {
            m.observe(LineAddr::new(0)); // set 0: sampled
            m.observe(LineAddr::new(1)); // set 1: not sampled
        }
        let curve = m.utility_curve();
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[0], 0);
        assert!(curve.windows(2).all(|w| w[0] <= w[1]));
        // 9 rank-0 hits, scaled by 2.
        assert_eq!(curve[1], 18);
    }

    #[test]
    fn unsampled_sets_ignored() {
        let g = geom(4, 2);
        let mut m = UtilityMonitor::new(&g, 2); // only set 0 sampled
        assert_eq!(m.observe(LineAddr::new(1)), None);
        assert_eq!(m.observe(LineAddr::new(1)), None);
        assert_eq!(m.accesses(), 0, "set 1 accesses must not be recorded");
        m.observe(LineAddr::new(0));
        assert_eq!(m.accesses(), 1);
    }

    #[test]
    fn shadow_thrash_yields_no_hits() {
        let g = geom(1, 2);
        let mut m = UtilityMonitor::new(&g, 0);
        for _ in 0..10 {
            for n in 0..3 {
                m.observe(LineAddr::new(n));
            }
        }
        assert_eq!(m.utility_curve()[2], 0, "loop of 3 over 2 ways: zero shadow hits");
        assert!(m.misses() >= 29);
    }

    #[test]
    fn decay_and_reset() {
        let g = geom(1, 2);
        let mut m = UtilityMonitor::new(&g, 0);
        m.observe(LineAddr::new(0));
        m.observe(LineAddr::new(0));
        m.decay();
        assert_eq!(m.accesses(), 1);
        m.reset_counters();
        assert_eq!(m.hits_at_rank().iter().sum::<u64>(), 0);
    }
}
