//! Consumes everything `common` exports, so nothing is dead.

use nucache_common::stats::CoreStats;

/// Runs one epoch and reads the counters back.
pub fn run() -> u64 {
    let mut s = CoreStats::default();
    s.record();
    s.hits
}
