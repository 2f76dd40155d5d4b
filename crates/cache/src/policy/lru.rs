//! True least-recently-used replacement.

use crate::config::CacheGeometry;
use crate::policy::{FillCtx, ReplacementPolicy};

/// Least-recently-used replacement using per-way last-touch stamps.
///
/// A monotone counter stamps every hit and fill; the victim is the way
/// with the oldest stamp. With the small associativities of real caches a
/// linear minimum scan beats maintaining a linked stack.
///
/// # Examples
///
/// ```
/// use nucache_cache::{BasicCache, CacheGeometry, ReplacementPolicy, policy::Lru};
/// let geom = CacheGeometry::new(64 * 4, 4, 64); // one 4-way set
/// let cache = BasicCache::new(geom, Lru::new(&geom));
/// assert_eq!(cache.policy().name(), "lru");
/// ```
#[derive(Debug, Clone)]
pub struct Lru {
    assoc: usize,
    stamp: u64,
    last_touch: Vec<u64>,
}

impl Lru {
    /// Creates LRU state for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        Lru { assoc: geom.associativity(), stamp: 0, last_touch: vec![0; geom.num_lines()] }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.assoc + way
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.stamp += 1;
        let i = self.idx(set, way);
        self.last_touch[i] = self.stamp;
    }

    /// Recency rank of `way` within `set`: 0 = MRU, `assoc-1` = LRU.
    /// Used by monitors that need stack positions (UMON).
    pub fn recency_rank(&self, set: usize, way: usize) -> usize {
        let mine = self.last_touch[self.idx(set, way)];
        (0..self.assoc).filter(|&w| w != way && self.last_touch[self.idx(set, w)] > mine).count()
    }
}

impl ReplacementPolicy for Lru {
    fn on_hit(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &FillCtx) {
        self.touch(set, way);
    }

    #[expect(clippy::expect_used, reason = "geometries have non-zero associativity")]
    fn victim(&mut self, set: usize) -> usize {
        let base = set * self.assoc;
        (0..self.assoc).min_by_key(|&w| self.last_touch[base + w]).expect("non-zero associativity")
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        self.last_touch[i] = 0;
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::BasicCache;
    use crate::policy::testutil::{one_set, touch};

    #[test]
    fn evicts_least_recently_used() {
        let g = one_set(4);
        let mut c = BasicCache::new(g, Lru::new(&g));
        for n in 0..4 {
            assert!(!touch(&mut c, n));
        }
        // Touch 0 to make it MRU; line 1 is now LRU.
        assert!(touch(&mut c, 0));
        assert!(!touch(&mut c, 4)); // evicts 1
        assert!(touch(&mut c, 0));
        assert!(touch(&mut c, 2));
        assert!(touch(&mut c, 3));
        assert!(!touch(&mut c, 1), "line 1 should have been the victim");
    }

    #[test]
    fn lru_stack_property_on_loop() {
        // A cyclic loop over assoc+1 distinct lines yields zero hits under
        // true LRU (the classic thrash pattern).
        let g = one_set(4);
        let mut c = BasicCache::new(g, Lru::new(&g));
        let mut hits = 0;
        for _ in 0..10 {
            for n in 0..5 {
                if touch(&mut c, n) {
                    hits += 1;
                }
            }
        }
        assert_eq!(hits, 0);
    }

    #[test]
    fn recency_rank_orders_ways() {
        let g = one_set(4);
        let mut c = BasicCache::new(g, Lru::new(&g));
        for n in 0..4 {
            touch(&mut c, n);
        }
        // Fill order 0,1,2,3 -> way of line 3 is MRU (rank 0), way of 0 is rank 3.
        assert_eq!(c.policy().recency_rank(0, 3), 0);
        assert_eq!(c.policy().recency_rank(0, 0), 3);
    }

    #[test]
    fn invalidate_clears_recency() {
        let g = one_set(2);
        let mut c = BasicCache::new(g, Lru::new(&g));
        touch(&mut c, 0);
        touch(&mut c, 1);
        c.invalidate_line(nucache_common::LineAddr::new(1));
        // Refill: the invalidated way is reused first (invalid-way preference),
        // and line 0 must still be resident.
        assert!(!touch(&mut c, 2));
        assert!(touch(&mut c, 0));
    }
}
