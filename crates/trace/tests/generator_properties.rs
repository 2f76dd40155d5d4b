//! Property-based tests over the workload generators.

use nucache_common::CoreId;
use nucache_trace::{Behavior, SiteSpec, SpecWorkload, TraceGen, WorkloadSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Loop generators never leave their region and visit it completely.
    #[test]
    fn loop_stays_in_region(lines in 1u64..500, take in 1usize..2000) {
        let spec = WorkloadSpec::single_phase(
            "p",
            vec![SiteSpec::new(Behavior::Loop { lines }, 1)],
            (0, 0),
        );
        let mut seen = std::collections::BTreeSet::new();
        let mut min = u64::MAX;
        let mut max = 0;
        for a in TraceGen::new(&spec, CoreId::new(0), 1).take(take) {
            let l = a.addr.line(6).0;
            seen.insert(l);
            min = min.min(l);
            max = max.max(l);
        }
        prop_assert!(max - min < lines, "loop wandered outside its region");
        prop_assert!(seen.len() as u64 <= lines);
        if take as u64 >= lines {
            prop_assert_eq!(seen.len() as u64, lines, "full pass must cover the region");
        }
    }

    /// Random sites stay within their declared region too.
    #[test]
    fn random_stays_in_region(lines in 1u64..1000) {
        let spec = WorkloadSpec::single_phase(
            "p",
            vec![SiteSpec::new(Behavior::RandomUniform { lines }, 1)],
            (0, 0),
        );
        let base = TraceGen::new(&spec, CoreId::new(0), 2).next().unwrap().addr.line(6).0
            / (1 << 26)
            * (1 << 26);
        for a in TraceGen::new(&spec, CoreId::new(0), 2).take(500) {
            let offset = a.addr.line(6).0 - base;
            prop_assert!(offset < lines, "random access escaped: offset {offset} >= {lines}");
        }
    }

    /// Generator determinism holds for arbitrary multi-site specs.
    #[test]
    fn arbitrary_specs_deterministic(
        sizes in prop::collection::vec(1u64..300, 1..5),
        seed in any::<u64>(),
        gap_lo in 0u32..5,
        gap_span in 0u32..5,
    ) {
        #[expect(clippy::cast_possible_truncation, reason = "a handful of sites")]
        let sites: Vec<SiteSpec> = sizes
            .iter()
            .enumerate()
            .map(|(i, &lines)| {
                let behavior = match i % 4 {
                    0 => Behavior::Loop { lines },
                    1 => Behavior::Stream { lines, stride: 1 + (i as u64 % 3) },
                    2 => Behavior::RandomUniform { lines },
                    _ => Behavior::PointerChase { lines },
                };
                SiteSpec::new(behavior, 1 + i as u32)
            })
            .collect();
        let spec = WorkloadSpec::single_phase("p", sites, (gap_lo, gap_lo + gap_span));
        let a: Vec<_> = TraceGen::new(&spec, CoreId::new(1), seed).take(300).collect();
        let b: Vec<_> = TraceGen::new(&spec, CoreId::new(1), seed).take(300).collect();
        prop_assert_eq!(a, b);
    }

    /// Every emitted access carries the right core, a gap within the
    /// declared range, and an MLP of at least 1.
    #[test]
    fn emitted_fields_valid(seed in any::<u64>(), core in 0u8..8) {
        let spec = SpecWorkload::McfLike.spec();
        for a in TraceGen::new(&spec, CoreId::new(core), seed).take(300) {
            prop_assert_eq!(a.core, CoreId::new(core));
            prop_assert!((spec.gap.0..=spec.gap.1).contains(&a.gap));
            prop_assert!(a.mlp >= 1);
        }
    }

    /// The block-batched generator is an amortization, not a new
    /// generator: `fill_block` must emit byte-identical streams to the
    /// per-access `Iterator` facade — across the whole roster, arbitrary
    /// seeds, and block sizes that do and don't divide phase lengths.
    #[test]
    fn fill_block_matches_iterator(
        seed in any::<u64>(),
        workload_idx in 0usize..SpecWorkload::ALL.len(),
        block in 1usize..129,
        blocks in 1usize..8,
    ) {
        let spec = SpecWorkload::ALL[workload_idx].spec();
        let total = block * blocks;
        let expected: Vec<_> =
            TraceGen::new(&spec, CoreId::new(2), seed).take(total).collect();
        let mut gen = TraceGen::new(&spec, CoreId::new(2), seed);
        let mut buf = vec![
            nucache_common::Access::new(
                CoreId::new(0),
                nucache_common::Pc::new(0),
                nucache_common::Addr::new(0),
                nucache_common::AccessKind::Read,
            );
            block
        ];
        let mut got = Vec::with_capacity(total);
        for _ in 0..blocks {
            gen.fill_block(&mut buf);
            got.extend_from_slice(&buf);
        }
        prop_assert_eq!(expected, got, "fill_block diverged from next()");
    }

    /// Distinct seeds virtually never produce identical 100-access
    /// prefixes for a stochastic workload.
    #[test]
    fn seeds_differentiate(seed in 0u64..10_000) {
        let spec = SpecWorkload::OmnetppLike.spec();
        let a: Vec<_> = TraceGen::new(&spec, CoreId::new(0), seed).take(100).collect();
        let b: Vec<_> = TraceGen::new(&spec, CoreId::new(0), seed + 1).take(100).collect();
        prop_assert_ne!(a, b);
    }
}

#[test]
fn all_roster_workloads_generate_within_spacing() {
    // Region spacing is 2^26 lines; no site may bleed into a neighbour's
    // region even across the full roster.
    for w in SpecWorkload::ALL {
        let spec = w.spec();
        for a in TraceGen::new(&spec, CoreId::new(0), 3).take(5_000) {
            let line = a.addr.line(6).0;
            let offset = line % (1 << 26);
            assert!(
                offset < (1 << 25),
                "{}: offset {offset:#x} suspiciously deep into a region",
                w.name()
            );
        }
    }
}
