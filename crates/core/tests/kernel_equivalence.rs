//! Bit-for-bit equivalence of the kernel-backed [`NuCache`] against the
//! pre-refactor, `SetArray`-based implementation.
//!
//! The `legacy` module below is the NUcache LLC exactly as it existed
//! before the mechanism was extracted into `nucache-kernel` (telemetry
//! and audit trimmed — those never affect simulation results, which the
//! in-crate `audited_run_checks_epochs_and_matches_unaudited` test
//! pins). It shares the monitor/tracker/selector components with the
//! kernel — those moved verbatim and carry their own unit tests — so
//! what this suite pins is the part that was *rewritten*: the kernel's
//! tag/valid/entry arrays, the MainWays LRU and DeliWays FIFO
//! replacement, hit promotion, epoch ticking and the decay sequencing.
//!
//! Every access must produce the identical outcome (hit/miss and the
//! exact evicted line, dirty bit and all), and every run the identical
//! cumulative stats, epoch count, chosen-PC sets and selection
//! objective, across strategies, epoch boundaries and DeliWays shapes.

#![expect(clippy::expect_used, reason = "the legacy reference keeps its original invariant checks")]

use nucache_cache::{CacheGeometry, SharedLlc};
use nucache_common::{AccessKind, CoreId, LineAddr, Pc};
use nucache_core::config::{NuCacheConfig, SelectionStrategy};
use nucache_core::NuCache;
use proptest::prelude::*;

mod legacy {
    //! The pre-refactor NUcache, preserved as the equivalence oracle.

    use nucache_cache::meta::{AccessOutcome, EvictedLine, LineMeta};
    use nucache_cache::{CacheGeometry, SetArray};
    use nucache_common::{AccessKind, CacheStats, CoreId, LineAddr, Pc};
    use nucache_core::config::NuCacheConfig;
    use nucache_core::{
        build_candidates, select_pcs, DelinquentTracker, NextUseMonitor, Selection,
    };
    use std::collections::{BTreeMap, BTreeSet};

    /// Mask with the low `n` bits set (`n` up to 64).
    #[inline]
    const fn low_mask(n: usize) -> u64 {
        if n >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    pub struct LegacyNuCache {
        array: SetArray,
        main_ways: usize,
        deli_ways: usize,
        config: NuCacheConfig,
        main_touch: Vec<u64>,
        deli_entry: Vec<u64>,
        stamp: u64,
        monitor: NextUseMonitor,
        tracker: DelinquentTracker,
        deli_fills_by_pc: BTreeMap<Pc, u64>,
        chosen: BTreeSet<Pc>,
        pub last_selection: Selection,
        window_accesses: u64,
        accesses_in_epoch: u64,
        pub epochs: u64,
        pub deli_hits: u64,
        pub deli_fills: u64,
        pub stats: CacheStats,
    }

    impl LegacyNuCache {
        pub fn new(geom: CacheGeometry, config: NuCacheConfig) -> Self {
            config.validate(geom.associativity());
            let main_ways = geom.associativity() - config.deli_ways;
            LegacyNuCache {
                array: SetArray::new(geom),
                main_ways,
                deli_ways: config.deli_ways,
                monitor: NextUseMonitor::new(
                    geom.set_bits(),
                    config.monitor_shift.min(geom.set_bits()),
                    config.monitor_depth,
                    config.histogram_buckets,
                ),
                tracker: DelinquentTracker::new(256.max(config.max_candidates)),
                deli_fills_by_pc: BTreeMap::new(),
                chosen: BTreeSet::new(),
                last_selection: Selection {
                    chosen: Vec::new(),
                    expected_hits: 0,
                    extra_lifetime: 0,
                },
                window_accesses: 0,
                main_touch: vec![0; geom.num_lines()],
                deli_entry: vec![0; geom.num_lines()],
                stamp: 0,
                config,
                accesses_in_epoch: 0,
                epochs: 0,
                deli_hits: 0,
                deli_fills: 0,
                stats: CacheStats::default(),
            }
        }

        pub fn chosen_pcs(&self) -> Vec<Pc> {
            let mut v: Vec<Pc> = self.chosen.iter().copied().collect();
            v.sort_unstable();
            v
        }

        pub fn selection_accesses(&self) -> u64 {
            self.window_accesses
        }

        pub fn deli_occupancy(&self) -> u64 {
            let geom = self.array.geometry();
            (0..geom.num_sets())
                .map(|s| {
                    (self.main_ways..self.main_ways + self.deli_ways)
                        .filter(|&w| self.array.get(s, w).is_some())
                        .count() as u64
                })
                .sum()
        }

        #[inline]
        fn frame(&self, set: usize, way: usize) -> usize {
            set * self.array.geometry().associativity() + way
        }

        #[inline]
        fn free_main_way(&self, set: usize) -> Option<usize> {
            let free = !self.array.valid_mask(set) & low_mask(self.main_ways);
            (free != 0).then(|| free.trailing_zeros() as usize)
        }

        fn touch_main(&mut self, set: usize, way: usize) {
            self.stamp += 1;
            let f = self.frame(set, way);
            self.main_touch[f] = self.stamp;
        }

        fn main_victim(&self, set: usize) -> usize {
            (0..self.main_ways)
                .min_by_key(|&w| self.main_touch[self.frame(set, w)])
                .expect("at least one MainWay")
        }

        fn deli_slot(&self, set: usize) -> usize {
            let free = (!self.array.valid_mask(set) >> self.main_ways) & low_mask(self.deli_ways);
            if free != 0 {
                return self.main_ways + free.trailing_zeros() as usize;
            }
            (self.main_ways..self.main_ways + self.deli_ways)
                .min_by_key(|&w| self.deli_entry[self.frame(set, w)])
                .expect("deli_ways > 0 when called")
        }

        fn retire_from_main(&mut self, set: usize, victim: EvictedLine) -> Option<EvictedLine> {
            self.monitor.on_evict(victim.line.0, victim.pc);
            if self.deli_ways == 0 || !self.chosen.contains(&victim.pc) {
                return Some(victim);
            }
            let slot = self.deli_slot(set);
            let geom = *self.array.geometry();
            let meta =
                LineMeta::new(geom.tag_of(victim.line), victim.core, victim.pc, victim.dirty);
            let dropped = self.array.fill(set, slot, meta);
            self.stamp += 1;
            let f = self.frame(set, slot);
            self.deli_entry[f] = self.stamp;
            self.deli_fills += 1;
            *self.deli_fills_by_pc.entry(victim.pc).or_insert(0) += 1;
            dropped
        }

        fn run_selection(&mut self) {
            self.epochs += 1;
            let pool = match self.config.strategy {
                nucache_core::SelectionStrategy::Exhaustive => self.config.oracle_pool,
                _ => self.config.max_candidates,
            };
            let mut combined: BTreeMap<Pc, u64> = self.deli_fills_by_pc.clone();
            for (pc, misses) in self.tracker.top_k(self.tracker.len()) {
                *combined.entry(pc).or_insert(0) += misses;
            }
            let mut top: Vec<(Pc, u64)> = combined.into_iter().collect();
            top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            top.truncate(pool);
            let candidates = build_candidates(&top, self.monitor.histograms());
            let accesses_global = self.window_accesses;
            self.last_selection = select_pcs(
                &candidates,
                self.deli_ways,
                accesses_global.max(1),
                self.config.strategy,
                self.config.seed ^ self.epochs,
            );
            self.chosen = self.last_selection.chosen.iter().copied().collect();
            self.tracker.decay();
            self.monitor.decay();
            self.deli_fills_by_pc.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
            self.window_accesses /= 2;
        }

        fn epoch_tick(&mut self) {
            self.accesses_in_epoch += 1;
            if self.accesses_in_epoch >= self.config.epoch_len {
                self.accesses_in_epoch = 0;
                self.run_selection();
            }
        }

        pub fn access(
            &mut self,
            core: CoreId,
            pc: Pc,
            line: LineAddr,
            kind: AccessKind,
        ) -> AccessOutcome {
            let geom = *self.array.geometry();
            let set = geom.set_of(line);
            let tag = geom.tag_of(line);
            self.monitor.on_set_access(line.0);
            self.window_accesses += 1;
            self.epoch_tick();

            if let Some(way) = self.array.find(set, tag) {
                self.stats.record_hit();
                if kind.is_write() {
                    self.array.mark_dirty(set, way);
                }
                if way < self.main_ways {
                    self.touch_main(set, way);
                } else {
                    self.deli_hits += 1;
                    self.monitor.on_next_use(line.0);
                    if !self.config.promote_on_deli_hit && self.config.deli_hit_refresh {
                        self.stamp += 1;
                        let f = self.frame(set, way);
                        self.deli_entry[f] = self.stamp;
                    }
                    if self.config.promote_on_deli_hit && self.main_ways > 0 {
                        let deli_meta = self.array.get(set, way).expect("hit way valid");
                        self.array.invalidate(set, way);
                        let mv = self.free_main_way(set).unwrap_or_else(|| self.main_victim(set));
                        if let Some(victim) = self.array.invalidate(set, mv) {
                            if let Some(leaving) = self.retire_from_main(set, victim) {
                                self.stats.record_eviction(leaving.dirty);
                            }
                        }
                        self.array.fill(set, mv, deli_meta);
                        self.touch_main(set, mv);
                    }
                }
                return AccessOutcome::Hit;
            }

            self.stats.record_miss();
            self.tracker.record_miss(pc);
            self.monitor.on_next_use(line.0);

            let meta = LineMeta::new(tag, core, pc, kind.is_write());
            let (way, leaving) = match self.free_main_way(set) {
                Some(w) => (w, None),
                None => {
                    let w = self.main_victim(set);
                    let victim =
                        self.array.invalidate(set, w).expect("MainWays full, victim valid");
                    (w, self.retire_from_main(set, victim))
                }
            };
            self.array.fill(set, way, meta);
            self.touch_main(set, way);
            if let Some(ev) = leaving {
                self.stats.record_eviction(ev.dirty);
            }
            AccessOutcome::Miss { evicted: leaving }
        }
    }
}

/// One synthetic access: which PC issues it, which line, read or write.
#[derive(Debug, Clone, Copy)]
struct Step {
    pc: u64,
    line: u64,
    write: bool,
}

fn step_strategy(lines: u64) -> impl Strategy<Value = Step> {
    (0u64..6, 0..lines, any::<bool>()).prop_map(|(pc, line, write)| Step { pc, line, write })
}

fn strategy_choice() -> impl Strategy<Value = SelectionStrategy> {
    (0u64..5).prop_map(|i| match i {
        0 => SelectionStrategy::CostBenefit,
        1 => SelectionStrategy::Exhaustive,
        2 => SelectionStrategy::StaticTopK(2),
        3 => SelectionStrategy::Random(2),
        _ => SelectionStrategy::None,
    })
}

/// Drives both implementations over the same stream and asserts
/// per-access and cumulative equivalence.
fn assert_equivalent(sets: u64, assoc: usize, config: NuCacheConfig, steps: &[Step]) {
    let geom = CacheGeometry::new(64 * assoc as u64 * sets, assoc, 64);
    let mut kernel_backed = NuCache::new(geom, 1, config);
    let mut oracle = legacy::LegacyNuCache::new(geom, config);
    for (i, s) in steps.iter().enumerate() {
        let kind = if s.write { AccessKind::Write } else { AccessKind::Read };
        let got = kernel_backed.access(CoreId::new(0), Pc::new(s.pc), LineAddr::new(s.line), kind);
        let want = oracle.access(CoreId::new(0), Pc::new(s.pc), LineAddr::new(s.line), kind);
        assert_eq!(got, want, "outcome diverged at access {i} ({s:?})");
    }
    assert_eq!(kernel_backed.stats(), &oracle.stats, "cumulative stats diverged");
    assert_eq!(kernel_backed.deli_hits(), oracle.deli_hits);
    assert_eq!(kernel_backed.deli_fills(), oracle.deli_fills);
    assert_eq!(kernel_backed.epochs(), oracle.epochs);
    assert_eq!(kernel_backed.chosen_pcs(), oracle.chosen_pcs());
    assert_eq!(kernel_backed.last_selection(), &oracle.last_selection);
    assert_eq!(kernel_backed.selection_accesses(), oracle.selection_accesses());
    assert_eq!(kernel_backed.deli_occupancy(), oracle.deli_occupancy());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline property: arbitrary access streams over several epoch
    /// boundaries, all selection strategies, promotion on (the default).
    #[test]
    fn kernel_matches_legacy(
        steps in prop::collection::vec(step_strategy(96), 1..1500),
        deli in 0usize..4,
        strategy in strategy_choice(),
        epoch_len in 40u64..220,
    ) {
        let mut config = NuCacheConfig::default()
            .with_deli_ways(deli)
            .with_epoch_len(epoch_len)
            .with_strategy(strategy);
        config.monitor_shift = 0;
        assert_equivalent(8, 4, config, &steps);
    }

    /// FIFO aging without promotion, with and without the second-chance
    /// refresh extension.
    #[test]
    fn kernel_matches_legacy_fifo_modes(
        steps in prop::collection::vec(step_strategy(64), 1..800),
        refresh in any::<bool>(),
        epoch_len in 40u64..160,
    ) {
        let mut config = NuCacheConfig::default()
            .with_deli_ways(3)
            .with_epoch_len(epoch_len);
        config.promote_on_deli_hit = false;
        config.deli_hit_refresh = refresh;
        config.monitor_shift = 0;
        assert_equivalent(4, 8, config, &steps);
    }

    /// Sampled monitoring (shift > 0) and a bigger geometry, so the
    /// sampled/unsampled set split and the per-set clocks line up too.
    #[test]
    fn kernel_matches_legacy_sampled_monitor(
        steps in prop::collection::vec(step_strategy(512), 1..1200),
        shift in 1u32..3,
    ) {
        let mut config = NuCacheConfig::default()
            .with_deli_ways(4)
            .with_epoch_len(100);
        config.monitor_shift = shift;
        assert_equivalent(16, 8, config, &steps);
    }
}

/// A deterministic long run crossing many epochs with a workload the
/// selector actually bites on (loop + stream), as a fixed regression
/// anchor alongside the randomized properties.
#[test]
fn kernel_matches_legacy_loop_stream() {
    let mut config = NuCacheConfig::default().with_deli_ways(8).with_epoch_len(2_000);
    config.monitor_shift = 0;
    let geom = CacheGeometry::new(64 * 16 * 64, 16, 64);
    let mut kernel_backed = NuCache::new(geom, 1, config);
    let mut oracle = legacy::LegacyNuCache::new(geom, config);
    let mut stream = 1u64 << 20;
    for round in 0..30_000u64 {
        for (pc, line) in [(1, round % 768), (2, stream)] {
            if pc == 2 && round % 2 != 0 {
                continue;
            }
            let got = kernel_backed.access(
                CoreId::new(0),
                Pc::new(pc),
                LineAddr::new(line),
                AccessKind::Read,
            );
            let want =
                oracle.access(CoreId::new(0), Pc::new(pc), LineAddr::new(line), AccessKind::Read);
            assert_eq!(got, want, "diverged at round {round} pc {pc}");
        }
        if round % 2 == 0 {
            stream += 1;
        }
    }
    assert!(oracle.epochs >= 2, "workload must cross epochs");
    assert!(oracle.deli_hits > 0, "workload must exercise the DeliWays");
    assert_eq!(kernel_backed.chosen_pcs(), oracle.chosen_pcs());
    assert_eq!(kernel_backed.stats(), &oracle.stats);
}
