//! Benchmark support for the NUcache reproduction.
//!
//! * [`fill_find_churn`] — the steady-state tag-array churn loop the
//!   `summary` perf-trajectory binary measures;
//! * [`loadgen`] — the closed-loop threaded load generator driving the
//!   concurrent sharded front-end against a lock-striped LRU baseline
//!   (the `loadgen` binary and the `threaded` section of
//!   `BENCH_<n>.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![expect(clippy::disallowed_types, reason = "a load generator times requests with Instant")]
#![expect(clippy::cast_possible_truncation, reason = "tool crate: masked indices and ns latencies")]

pub mod loadgen;

use nucache_cache::meta::LineMeta;
use nucache_cache::SetArray;
use nucache_common::{CoreId, Pc};

/// Steady-state tag-array churn: `n` rounds of interleaved fills, probes
/// and invalidations across many sets — the access pattern the simulator
/// actually produces, rather than a single hot set. Returns the hit
/// count so callers can black-box it.
///
/// This is the canonical `fill_find_churn` workload: every `summary`
/// run measures exactly this loop, so its numbers are comparable across
/// `BENCH_<n>.json` points.
pub fn fill_find_churn(arr: &mut SetArray, n: u64) -> u64 {
    let sets = arr.geometry().num_sets();
    let ways = arr.geometry().associativity();
    // Geometries guarantee power-of-two set counts; the bench geometries
    // use power-of-two associativity too, so the index math reduces to
    // masks (same values as `% sets` / `% ways`, no division in the
    // harness — the loop measures the array, not the modulo unit).
    assert!(
        sets.is_power_of_two() && ways.is_power_of_two(),
        "fill_find_churn expects power-of-two geometry"
    );
    let (set_mask, way_mask) = (sets - 1, ways - 1);
    let mut hits = 0u64;
    for i in 0..n {
        let set = (i as usize).wrapping_mul(7) & set_mask;
        let way = (i as usize).wrapping_mul(5) & way_mask;
        let tag = i % 32;
        arr.fill(set, way, LineMeta::new(tag, CoreId::new(0), Pc::new(0), i & 3 == 0));
        hits += u64::from(arr.find(set, tag).is_some());
        if i % 9 == 0 {
            arr.invalidate(set, way);
        }
    }
    hits
}
