//! Property-based tests of the PC-selection algorithms.

use nucache_common::{Log2Histogram, Pc};
use nucache_core::{select_pcs, Candidate, SelectionStrategy};
use proptest::prelude::*;

/// Strategy producing a plausible candidate pool.
fn candidates_strategy(max: usize) -> impl Strategy<Value = Vec<Candidate>> {
    prop::collection::vec((1u64..50_000, 0u64..20_000, 0u64..5_000, any::<bool>()), 1..max)
        .prop_map(|raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (fills, dist, mass, with_hist))| Candidate {
                    class: Pc::new(i as u64 * 8 + 0x400),
                    fills,
                    histogram: with_hist.then(|| {
                        let mut h = Log2Histogram::new(24);
                        if mass > 0 {
                            h.record_n(dist, mass);
                        }
                        h
                    }),
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// The chosen set is always a subset of the candidates, duplicate-free.
    #[test]
    fn chosen_is_subset(cands in candidates_strategy(16), deli in 1usize..12, acc in 1u64..1_000_000) {
        for strat in [
            SelectionStrategy::CostBenefit,
            SelectionStrategy::Exhaustive,
            SelectionStrategy::StaticTopK(4),
            SelectionStrategy::Random(4),
            SelectionStrategy::None,
        ] {
            let sel = select_pcs(&cands, deli, acc, strat, 7);
            let pool: std::collections::BTreeSet<Pc> = cands.iter().map(|c| c.class).collect();
            let mut seen = std::collections::BTreeSet::new();
            for pc in &sel.chosen {
                prop_assert!(pool.contains(pc), "{strat}: chose unknown PC");
                prop_assert!(seen.insert(*pc), "{strat}: duplicate PC");
            }
        }
    }

    /// Expected hits never exceed total recorded histogram mass.
    #[test]
    fn expected_hits_bounded(cands in candidates_strategy(12), deli in 1usize..12) {
        let total_mass: u64 = cands
            .iter()
            .filter_map(|c| c.histogram.as_ref())
            .map(|h| h.total())
            .sum();
        for strat in [SelectionStrategy::CostBenefit, SelectionStrategy::Exhaustive] {
            let sel = select_pcs(&cands, deli, 100_000, strat, 1);
            prop_assert!(
                sel.expected_hits <= total_mass,
                "{strat}: expected {} > recorded mass {total_mass}",
                sel.expected_hits
            );
        }
    }

    /// Exhaustive search is an upper bound on greedy for any instance
    /// with at most 12 candidates.
    #[test]
    fn exhaustive_dominates_greedy(cands in candidates_strategy(12), deli in 1usize..12) {
        let g = select_pcs(&cands, deli, 100_000, SelectionStrategy::CostBenefit, 1);
        let o = select_pcs(&cands, deli, 100_000, SelectionStrategy::Exhaustive, 1);
        prop_assert!(
            o.expected_hits >= g.expected_hits,
            "oracle {} < greedy {}",
            o.expected_hits,
            g.expected_hits
        );
    }

    /// Greedy never selects a PC without any in-reach histogram mass when
    /// selecting it alone would yield zero benefit and there are no other
    /// candidates.
    #[test]
    fn no_pointless_solo_selection(fills in 1u64..100_000, dist in 10_000u64..1_000_000) {
        // A single candidate whose reuses are far beyond any achievable
        // lifetime: D * acc / fills << dist.
        let mut h = Log2Histogram::new(24);
        h.record_n(dist, 1_000);
        let cands = vec![Candidate { class: Pc::new(1), fills, histogram: Some(h) }];
        let acc = fills; // lifetime = deli ways only
        let sel = select_pcs(&cands, 4, acc, SelectionStrategy::CostBenefit, 1);
        if dist > 8 {
            prop_assert!(sel.chosen.is_empty(), "selected a hopeless PC");
        }
    }

    /// Selection is deterministic for all strategies given fixed seeds.
    #[test]
    fn selection_deterministic(cands in candidates_strategy(10), seed in any::<u64>()) {
        for strat in [
            SelectionStrategy::CostBenefit,
            SelectionStrategy::Exhaustive,
            SelectionStrategy::StaticTopK(3),
            SelectionStrategy::Random(3),
        ] {
            let a = select_pcs(&cands, 8, 50_000, strat, seed);
            let b = select_pcs(&cands, 8, 50_000, strat, seed);
            prop_assert_eq!(a, b);
        }
    }

    /// Adding an irrelevant candidate (no histogram) never changes the
    /// greedy outcome's value: streams cannot help, and greedy must not
    /// pick them.
    #[test]
    fn streams_never_improve_greedy(cands in candidates_strategy(8), stream_fills in 1u64..100_000) {
        let base = select_pcs(&cands, 8, 100_000, SelectionStrategy::CostBenefit, 1);
        let mut with_stream = cands.clone();
        with_stream.push(Candidate { class: Pc::new(0xdead), fills: stream_fills, histogram: None });
        let plus = select_pcs(&with_stream, 8, 100_000, SelectionStrategy::CostBenefit, 1);
        prop_assert!(!plus.chosen.contains(&Pc::new(0xdead)), "chose a pure stream");
        prop_assert_eq!(plus.expected_hits, base.expected_hits);
    }
}
