//! Known-bad counter dataflow, one failure mode per field.

/// Counters with a reset path but broken flows.
#[derive(Default)]
pub struct EpochStats {
    /// Good: incremented in `tick`, read in `report`.
    pub hits: u64,
    /// Bad: incremented but never read anywhere.
    pub misses: u64,
    /// Bad: read in `report` but never written.
    pub stalls: u64,
}

impl EpochStats {
    /// Advances the counters.
    pub fn tick(&mut self) {
        self.hits += 1;
        self.misses += 1;
    }

    /// Reads some counters back.
    pub fn report(&self) -> u64 {
        self.hits + self.stalls
    }
}

/// Bad: accumulates but has no Default/clear/reset path and is never
/// freshly constructed.
pub struct LeakyStats {
    /// Incremented and read, so the field itself is fine.
    pub fills: u64,
}

impl LeakyStats {
    /// Increments.
    pub fn bump(&mut self) {
        self.fills += 1;
    }

    /// Reads.
    pub fn total(&self) -> u64 {
        self.fills
    }
}
