//! In-memory span accumulators for traced runs.
//!
//! Each span wraps one call into a layer's public function, recorded
//! from the benchmark's side of the call. Spans of one kind are kept as
//! a count and a total, which is all the per-layer metrics need.

use std::time::Instant;

#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub count: u64,
    pub ns: u64,
}

impl Span {
    #[inline]
    pub fn add(&mut self, ns: u64) {
        self.count += 1;
        self.ns += ns;
    }

    /// Closes a span opened at `start`.
    #[inline]
    pub fn close(&mut self, start: Instant) {
        self.add(start.elapsed().as_nanos() as u64);
    }

    pub fn merge(&mut self, other: Span) {
        self.count += other.count;
        self.ns += other.ns;
    }

    /// Mean ns per span, 0 when none were recorded.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64
        }
    }
}

#[inline]
pub fn ns_between(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}
