//! Delinquency accounting: which insertion classes cause the misses.
//!
//! The DelinquentPC observation underpinning NUcache is that a handful of
//! sources produce most misses. This tracker maintains per-class miss
//! counters over a window, with exponential decay at epoch boundaries
//! and a hard cap on tracked classes so the structure stays bounded:
//! when full, the weakest entry is reclaimed for a newly hot class (a
//! standard victim-replacement counter table).

use alloc::collections::BTreeMap;
use alloc::vec::Vec;
use core::fmt::Debug;

/// Per-class miss counters with bounded capacity and epoch decay,
/// generic over the insertion-class type `C`.
///
/// # Examples
///
/// ```
/// use nucache_kernel::tracker::DelinquentTracker;
/// use nucache_kernel::InsertionClass;
///
/// let mut t = DelinquentTracker::new(8);
/// t.record_miss(InsertionClass::new(0x400));
/// t.record_miss(InsertionClass::new(0x400));
/// t.record_miss(InsertionClass::new(0x408));
/// let top = t.top_k(1);
/// assert_eq!(top[0].0, InsertionClass::new(0x400));
/// assert_eq!(top[0].1, 2);
/// ```
#[derive(Debug, Clone)]
pub struct DelinquentTracker<C> {
    capacity: usize,
    /// Keyed by class in a `BTreeMap` so every iteration (victim scan,
    /// top-k) visits entries in class order — tie-breaks are
    /// deterministic by construction, never a function of hasher state.
    misses: BTreeMap<C, u64>,
    total_misses: u64,
}

impl<C: Copy + Ord + Debug> DelinquentTracker<C> {
    /// Creates a tracker holding at most `capacity` classes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero capacity");
        DelinquentTracker { capacity, misses: BTreeMap::new(), total_misses: 0 }
    }

    /// Records one miss caused by `class`.
    pub fn record_miss(&mut self, class: C) {
        self.total_misses += 1;
        if let Some(c) = self.misses.get_mut(&class) {
            *c += 1;
            return;
        }
        if self.misses.len() >= self.capacity {
            // Reclaim the weakest entry; BTreeMap iteration is in class
            // order and min_by_key keeps the first minimum, so equal
            // counts resolve to the lowest class.
            #[expect(clippy::expect_used, reason = "the map is at capacity, so non-empty")]
            let victim = self
                .misses
                .iter()
                .min_by_key(|&(_, c)| *c)
                .map(|(p, _)| *p)
                .expect("non-empty map at capacity");
            self.misses.remove(&victim);
        }
        // audit:allow-alloc(capacity-capped per-class miss table)
        self.misses.insert(class, 1);
    }

    /// Misses recorded for `class` in the current window.
    pub fn misses_of(&self, class: C) -> u64 {
        self.misses.get(&class).copied().unwrap_or(0)
    }

    /// Total misses observed (including those from untracked classes).
    pub const fn total_misses(&self) -> u64 {
        self.total_misses
    }

    /// Number of classes currently tracked.
    pub fn len(&self) -> usize {
        self.misses.len()
    }

    /// Whether no class has missed yet.
    pub fn is_empty(&self) -> bool {
        self.misses.is_empty()
    }

    /// The `k` classes with the most misses, descending (ties broken by
    /// class for determinism).
    pub fn top_k(&self, k: usize) -> Vec<(C, u64)> {
        let mut v: Vec<(C, u64)> = self.misses.iter().map(|(p, c)| (*p, *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Fraction of tracked misses covered by the top `k` classes (the
    /// DelinquentPC concentration statistic of the paper's Fig. 1).
    pub fn top_k_coverage(&self, k: usize) -> f64 {
        let tracked: u64 = self.misses.values().sum();
        if tracked == 0 {
            return 0.0;
        }
        let top: u64 = self.top_k(k).iter().map(|&(_, c)| c).sum();
        top as f64 / tracked as f64
    }

    /// Halves every counter and drops emptied entries (epoch decay).
    pub fn decay(&mut self) {
        self.misses.retain(|_, c| {
            *c /= 2;
            *c > 0
        });
        self.total_misses /= 2;
    }

    /// Clears everything.
    pub fn clear(&mut self) {
        self.misses.clear();
        self.total_misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InsertionClass;
    use alloc::vec;

    fn class(raw: u64) -> InsertionClass {
        InsertionClass::new(raw)
    }

    #[test]
    fn counts_and_orders() {
        let mut t = DelinquentTracker::new(16);
        for _ in 0..5 {
            t.record_miss(class(1));
        }
        for _ in 0..3 {
            t.record_miss(class(2));
        }
        t.record_miss(class(3));
        let top = t.top_k(2);
        assert_eq!(top, vec![(class(1), 5), (class(2), 3)]);
        assert_eq!(t.total_misses(), 9);
        assert_eq!(t.misses_of(class(3)), 1);
        assert_eq!(t.misses_of(class(99)), 0);
    }

    #[test]
    fn capacity_evicts_weakest() {
        let mut t = DelinquentTracker::new(2);
        for _ in 0..10 {
            t.record_miss(class(1));
        }
        t.record_miss(class(2));
        t.record_miss(class(3)); // evicts class 2 (weakest)
        assert_eq!(t.len(), 2);
        assert_eq!(t.misses_of(class(2)), 0);
        assert_eq!(t.misses_of(class(1)), 10);
        assert_eq!(t.misses_of(class(3)), 1);
    }

    #[test]
    fn coverage_concentrates() {
        let mut t = DelinquentTracker::new(64);
        for _ in 0..90 {
            t.record_miss(class(7));
        }
        for p in 0..10 {
            t.record_miss(class(100 + p));
        }
        assert!(t.top_k_coverage(1) > 0.89);
        assert!((t.top_k_coverage(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decay_halves_and_prunes() {
        let mut t = DelinquentTracker::new(8);
        t.record_miss(class(1));
        for _ in 0..4 {
            t.record_miss(class(2));
        }
        t.decay();
        assert_eq!(t.misses_of(class(1)), 0, "count 1 decays to 0 and is pruned");
        assert_eq!(t.misses_of(class(2)), 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_edge_cases() {
        let t: DelinquentTracker<InsertionClass> = DelinquentTracker::new(4);
        assert!(t.is_empty());
        assert_eq!(t.top_k(3), vec![]);
        assert_eq!(t.top_k_coverage(3), 0.0);
    }
}
