//! Known-good counter wiring: incremented, read, resettable, documented.

/// Counters with a derive(Default) reset path.
#[derive(Default)]
pub struct CoreStats {
    /// Hits: incremented in `record`, read in `app::run`.
    pub hits: u64,
}

impl CoreStats {
    /// Increments the hit counter.
    pub fn record(&mut self) {
        self.hits += 1;
    }
}
