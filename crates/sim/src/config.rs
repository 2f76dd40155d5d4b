//! The simulated system configuration (Table 1).

use nucache_cache::config::DEFAULT_BLOCK_BYTES;
use nucache_cache::CacheGeometry;
use nucache_cpu::TimingConfig;

/// Baseline private L1 capacity per core, in bytes (32 KB).
pub const BASELINE_L1_BYTES: u64 = 32 * 1024;
/// Baseline private L1 associativity.
pub const BASELINE_L1_WAYS: usize = 8;
/// Baseline private L2 capacity per core, in bytes (256 KB).
pub const BASELINE_L2_BYTES: u64 = 256 * 1024;
/// Baseline private L2 associativity.
pub const BASELINE_L2_WAYS: usize = 8;
/// Baseline shared-LLC capacity per core, in bytes (1 MiB; the LLC
/// scales with the core count).
pub const BASELINE_LLC_BYTES_PER_CORE: u64 = 1024 * 1024;
/// Baseline shared-LLC associativity.
pub const BASELINE_LLC_WAYS: usize = 16;
/// Baseline per-core warm-up accesses before measurement starts.
pub const BASELINE_WARMUP_ACCESSES: u64 = 300_000;
/// Baseline per-core measured accesses.
pub const BASELINE_MEASURE_ACCESSES: u64 = 1_000_000;
/// Baseline master seed for traces and stochastic policies.
pub const BASELINE_SEED: u64 = 0x5eed_2011;

/// Complete description of the simulated system and the run lengths.
///
/// The default corresponds to the evaluation's baseline: private
/// 32 KB / 8-way L1 and 256 KB / 8-way L2 per core, a shared 16-way LLC
/// sized at 1 MiB per core, 64 B blocks everywhere, and the default
/// latency ladder. Per-core run lengths: 300k warm-up accesses followed
/// by 1M measured accesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of cores.
    pub num_cores: usize,
    /// Private L1 geometry (per core).
    pub l1: CacheGeometry,
    /// Private L2 geometry (per core).
    pub l2: CacheGeometry,
    /// Shared LLC geometry.
    pub llc: CacheGeometry,
    /// Latencies.
    pub timing: TimingConfig,
    /// Per-core accesses before measurement starts.
    pub warmup_accesses: u64,
    /// Per-core accesses measured (metrics freeze once a core reaches
    /// this; it keeps running until every core has).
    pub measure_accesses: u64,
    /// Master seed for traces and stochastic policies.
    pub seed: u64,
}

impl SimConfig {
    /// The baseline configuration for `num_cores` cores: shared LLC of
    /// 1 MiB per core, 16-way.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    pub fn baseline(num_cores: usize) -> Self {
        assert!(num_cores > 0, "need at least one core");
        SimConfig {
            num_cores,
            l1: CacheGeometry::new(BASELINE_L1_BYTES, BASELINE_L1_WAYS, DEFAULT_BLOCK_BYTES),
            l2: CacheGeometry::new(BASELINE_L2_BYTES, BASELINE_L2_WAYS, DEFAULT_BLOCK_BYTES),
            llc: CacheGeometry::new(
                num_cores as u64 * BASELINE_LLC_BYTES_PER_CORE,
                BASELINE_LLC_WAYS,
                DEFAULT_BLOCK_BYTES,
            ),
            timing: TimingConfig::default(),
            warmup_accesses: BASELINE_WARMUP_ACCESSES,
            measure_accesses: BASELINE_MEASURE_ACCESSES,
            seed: BASELINE_SEED,
        }
    }

    /// A deliberately small configuration for doctests and unit tests:
    /// tiny private caches, a 64 KiB LLC and short runs.
    pub fn demo() -> Self {
        SimConfig {
            num_cores: 2,
            l1: CacheGeometry::new(4 * 1024, 4, 64),
            l2: CacheGeometry::new(16 * 1024, 8, 64),
            llc: CacheGeometry::new(64 * 1024, 16, 64),
            timing: TimingConfig::default(),
            warmup_accesses: 5_000,
            measure_accesses: 20_000,
            seed: BASELINE_SEED,
        }
    }

    /// Returns a copy with a different shared-LLC geometry.
    #[must_use]
    pub fn with_llc(mut self, llc: CacheGeometry) -> Self {
        self.llc = llc;
        self
    }

    /// Returns a copy with a different core count (the LLC is resized to
    /// keep 1 MiB per core only by [`SimConfig::baseline`]; this method
    /// leaves geometry untouched).
    #[must_use]
    pub fn with_cores(mut self, num_cores: usize) -> Self {
        assert!(num_cores > 0, "need at least one core");
        self.num_cores = num_cores;
        self
    }

    /// Returns a copy with different run lengths.
    #[must_use]
    pub fn with_run_lengths(mut self, warmup: u64, measure: u64) -> Self {
        assert!(measure > 0, "zero measurement window");
        self.warmup_accesses = warmup;
        self.measure_accesses = measure;
        self
    }

    /// Returns a copy with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sanity-checks the composite configuration.
    ///
    /// # Panics
    ///
    /// Panics if the latency ladder is inverted, the LLC is smaller
    /// than one core's L2, or the core count is zero or above 256 (a
    /// [`CoreId`](nucache_common::CoreId) is a `u8`).
    pub fn validate(&self) {
        self.timing.validate();
        assert!(self.llc.size_bytes() >= self.l2.size_bytes(), "LLC smaller than a private L2");
        assert!(self.num_cores > 0, "need at least one core");
        assert!(
            u8::try_from(self.num_cores - 1).is_ok(),
            "at most 256 cores (one CoreId each), got {}",
            self.num_cores
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_scales_llc_with_cores() {
        for n in [1, 2, 4, 8] {
            let c = SimConfig::baseline(n);
            c.validate();
            assert_eq!(c.llc.size_bytes(), n as u64 * 1024 * 1024);
            assert_eq!(c.num_cores, n);
        }
    }

    #[test]
    fn demo_is_valid() {
        SimConfig::demo().validate();
    }

    #[test]
    #[should_panic(expected = "at most 256 cores")]
    fn validate_rejects_more_cores_than_core_ids() {
        // Core 256 would alias core 0's CoreId and merge their stats.
        SimConfig::demo().with_cores(256).validate();
        SimConfig::demo().with_cores(257).validate();
    }

    #[test]
    fn builders_apply() {
        let c = SimConfig::demo()
            .with_llc(CacheGeometry::new(128 * 1024, 16, 64))
            .with_cores(3)
            .with_run_lengths(1, 2)
            .with_seed(7);
        assert_eq!(c.llc.size_bytes(), 128 * 1024);
        assert_eq!(c.num_cores, 3);
        assert_eq!(c.warmup_accesses, 1);
        assert_eq!(c.measure_accesses, 2);
        assert_eq!(c.seed, 7);
    }

    #[test]
    #[should_panic(expected = "zero measurement")]
    fn zero_measure_rejected() {
        let _ = SimConfig::demo().with_run_lengths(0, 0);
    }
}
