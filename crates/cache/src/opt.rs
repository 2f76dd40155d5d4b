//! Belady's OPT: offline-optimal replacement for headroom analysis.
//!
//! Given a complete line-address trace, OPT evicts the resident line
//! whose next use lies farthest in the future — the provably minimal
//! number of misses for a set-associative cache with demand fills. No
//! online policy (NUcache included) can beat it; the experiments use it
//! to show how much of the remaining headroom each scheme captures.
//!
//! Two passes: the first links each access to the trace index of the
//! line's next use; the second simulates, keeping per-set residents
//! keyed by next-use index.

use crate::config::CacheGeometry;
use nucache_common::{CacheStats, LineAddr};

/// Result of an OPT simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptResult {
    /// Hit/miss counters under OPT.
    pub stats: CacheStats,
}

/// Simulates Belady's OPT over `trace` for a cache shaped like `geom`.
///
/// Runs in `O(N log A)` time and `O(N)` space for a trace of `N`
/// accesses.
///
/// # Examples
///
/// ```
/// use nucache_cache::{opt::optimal_misses, CacheGeometry};
/// use nucache_common::LineAddr;
///
/// let geom = CacheGeometry::new(64 * 2, 2, 64); // one 2-way set
/// // Loop of 3 over 2 ways: LRU gets zero hits, OPT keeps one line hot.
/// let trace: Vec<LineAddr> = (0..30).map(|i| LineAddr::new(i % 3)).collect();
/// let r = optimal_misses(&geom, &trace);
/// assert!(r.stats.hits > 0);
/// ```
#[expect(
    clippy::disallowed_types,
    reason = "lookup-only maps (insert/get/remove by key); nothing iterates them"
)]
pub fn optimal_misses(geom: &CacheGeometry, trace: &[LineAddr]) -> OptResult {
    use std::collections::HashMap;
    // Pass 1: next_use[i] = index of the next access to trace[i]'s line
    // (usize::MAX if never again).
    let mut next_use = vec![usize::MAX; trace.len()];
    let mut last_seen: HashMap<u64, usize> = HashMap::new();
    for (i, line) in trace.iter().enumerate().rev() {
        let entry = last_seen.insert(line.0, i);
        if let Some(next) = entry {
            next_use[i] = next;
        }
    }

    // Pass 2: per-set residents as (next_use, line) ordered sets, plus a
    // line -> current next_use map for hit updates.
    let num_sets = geom.num_sets();
    let assoc = geom.associativity();
    let mut residents: Vec<std::collections::BTreeSet<(usize, u64)>> =
        vec![std::collections::BTreeSet::new(); num_sets];
    let mut keyed: HashMap<u64, usize> = HashMap::new();
    let mut stats = CacheStats::default();

    for (i, line) in trace.iter().enumerate() {
        let set = geom.set_of(*line);
        let nu = next_use[i];
        if let Some(&old_key) = keyed.get(&line.0) {
            // Hit: re-key the line to its new next use.
            stats.record_hit();
            let removed = residents[set].remove(&(old_key, line.0));
            debug_assert!(removed, "resident line must be in its set");
            residents[set].insert((nu, line.0));
            keyed.insert(line.0, nu);
            continue;
        }
        stats.record_miss();
        if residents[set].len() == assoc {
            // Evict the farthest-next-use line. `usize::MAX` (never used
            // again) sorts last, exactly as OPT wants.
            #[expect(
                clippy::expect_used,
                reason = "the set holds `assoc` residents when this runs"
            )]
            let victim = *residents[set].iter().next_back().expect("full set");
            residents[set].remove(&victim);
            keyed.remove(&victim.1);
            stats.record_eviction(false);
        }
        residents[set].insert((nu, line.0));
        keyed.insert(line.0, nu);
    }
    OptResult { stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::BasicCache;
    use crate::policy::Lru;
    use nucache_common::{AccessKind, CoreId, Pc};

    fn lru_hits(geom: &CacheGeometry, trace: &[LineAddr]) -> u64 {
        let mut c = BasicCache::new(*geom, Lru::new(geom));
        for &l in trace {
            c.access(l, AccessKind::Read, CoreId::new(0), Pc::new(0));
        }
        c.stats().hits
    }

    fn one_set(assoc: usize) -> CacheGeometry {
        CacheGeometry::new(64 * assoc as u64, assoc, 64)
    }

    #[test]
    fn opt_never_loses_to_lru() {
        // Deterministic pseudo-random trace: OPT >= LRU must hold.
        let geom = CacheGeometry::new(64 * 4 * 4, 4, 64);
        let mut x = 12345u64;
        let trace: Vec<LineAddr> = (0..5000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                LineAddr::new((x >> 33) % 64)
            })
            .collect();
        let opt = optimal_misses(&geom, &trace);
        assert!(opt.stats.hits >= lru_hits(&geom, &trace));
        assert_eq!(opt.stats.accesses(), 5000);
    }

    #[test]
    fn opt_beats_lru_on_cyclic_thrash() {
        let geom = one_set(2);
        let trace: Vec<LineAddr> = (0..300).map(|i| LineAddr::new(i % 3)).collect();
        assert_eq!(lru_hits(&geom, &trace), 0);
        let opt = optimal_misses(&geom, &trace);
        // OPT keeps one of the three lines resident across the cycle:
        // roughly one hit per iteration.
        assert!(opt.stats.hits >= 140, "opt hits = {}", opt.stats.hits);
    }

    #[test]
    fn opt_is_perfect_when_everything_fits() {
        let geom = one_set(4);
        let trace: Vec<LineAddr> = (0..100).map(|i| LineAddr::new(i % 4)).collect();
        let opt = optimal_misses(&geom, &trace);
        assert_eq!(opt.stats.misses, 4, "only compulsory misses");
    }

    #[test]
    fn empty_and_single_access() {
        let geom = one_set(2);
        assert_eq!(optimal_misses(&geom, &[]).stats.accesses(), 0);
        let r = optimal_misses(&geom, &[LineAddr::new(9)]);
        assert_eq!(r.stats.misses, 1);
    }

    #[test]
    fn sets_are_independent() {
        // Two sets, direct-mapped: accesses alternate sets; no
        // interference.
        let geom = CacheGeometry::new(64 * 2, 1, 64);
        let trace: Vec<LineAddr> =
            (0..50).flat_map(|_| [LineAddr::new(0), LineAddr::new(1)]).collect();
        let r = optimal_misses(&geom, &trace);
        assert_eq!(r.stats.misses, 2);
    }

    #[test]
    fn repeated_same_line_in_trace_is_handled() {
        // Back-to-back duplicates exercise the re-keying path where the
        // next use is the immediately following index.
        let geom = one_set(1);
        let trace = vec![LineAddr::new(5); 10];
        let r = optimal_misses(&geom, &trace);
        assert_eq!(r.stats.hits, 9);
    }
}
