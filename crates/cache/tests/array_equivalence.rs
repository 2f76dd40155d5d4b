//! Property test pinning the struct-of-arrays `SetArray` to the
//! semantics of the original frame-per-`Option` layout.
//!
//! A straightforward `Vec<Option<LineMeta>>` model executes the same
//! random operation sequence as the real array; every observable —
//! `find`, `invalid_way`, `occupancy`, `get`, `line_addr`, eviction
//! reports, `total_occupancy` — must agree at every step.

#![expect(
    clippy::expect_used,
    reason = "the reference model panics on a misuse the real array must also reject"
)]

use nucache_cache::meta::{EvictedLine, LineMeta};
use nucache_cache::{CacheGeometry, SetArray};
use nucache_common::{CoreId, LineAddr, Pc};
use proptest::prelude::*;

/// Reference implementation: the pre-SoA frame array.
struct ModelArray {
    geom: CacheGeometry,
    frames: Vec<Option<LineMeta>>,
}

impl ModelArray {
    fn new(geom: CacheGeometry) -> Self {
        ModelArray { geom, frames: vec![None; geom.num_lines()] }
    }

    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.geom.associativity() + way
    }

    fn set(&self, set: usize) -> &[Option<LineMeta>] {
        let b = self.idx(set, 0);
        &self.frames[b..b + self.geom.associativity()]
    }

    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        self.set(set).iter().position(|f| matches!(f, Some(m) if m.tag == tag))
    }

    fn invalid_way(&self, set: usize) -> Option<usize> {
        self.set(set).iter().position(Option::is_none)
    }

    fn occupancy(&self, set: usize) -> usize {
        self.set(set).iter().filter(|f| f.is_some()).count()
    }

    fn get(&self, set: usize, way: usize) -> Option<LineMeta> {
        self.frames[self.idx(set, way)]
    }

    fn fill(&mut self, set: usize, way: usize, meta: LineMeta) -> Option<EvictedLine> {
        let i = self.idx(set, way);
        self.frames[i].replace(meta).map(|m| self.to_evicted(set, m))
    }

    fn invalidate(&mut self, set: usize, way: usize) -> Option<EvictedLine> {
        let i = self.idx(set, way);
        self.frames[i].take().map(|m| self.to_evicted(set, m))
    }

    fn mark_dirty(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        self.frames[i].as_mut().expect("model mark_dirty on invalid frame").dirty = true;
    }

    fn line_addr(&self, set: usize, way: usize) -> Option<LineAddr> {
        self.get(set, way).map(|m| self.geom.line_of(m.tag, set))
    }

    fn total_occupancy(&self) -> usize {
        self.frames.iter().filter(|f| f.is_some()).count()
    }

    fn to_evicted(&self, set: usize, m: LineMeta) -> EvictedLine {
        EvictedLine { line: self.geom.line_of(m.tag, set), dirty: m.dirty, core: m.core, pc: m.pc }
    }
}

const SETS: usize = 4;
const WAYS: usize = 4;
const TAGS: u64 = 8; // small tag space forces matches and overwrites

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn soa_matches_frame_model(
        ops in prop::collection::vec((0u8..4, 0usize..SETS, 0usize..WAYS, 0u64..TAGS), 1..400),
    ) {
        let geom = CacheGeometry::new((SETS * WAYS * 64) as u64, WAYS, 64);
        prop_assert_eq!(geom.num_sets(), SETS);
        let mut soa = SetArray::new(geom);
        let mut model = ModelArray::new(geom);

        for (op, set, way, tag) in ops {
            match op {
                0 => {
                    let meta = LineMeta::new(
                        tag,
                        CoreId::new((tag % 4) as u8),
                        Pc::new(0x400 + tag * 16),
                        tag & 1 == 1,
                    );
                    prop_assert_eq!(soa.fill(set, way, meta), model.fill(set, way, meta));
                }
                1 => {
                    prop_assert_eq!(soa.invalidate(set, way), model.invalidate(set, way));
                }
                2 => {
                    // mark_dirty is only legal on valid frames.
                    if model.get(set, way).is_some() {
                        soa.mark_dirty(set, way);
                        model.mark_dirty(set, way);
                    }
                }
                _ => {
                    prop_assert_eq!(soa.find(set, tag), model.find(set, tag));
                }
            }
            // Every observable agrees after every operation.
            prop_assert_eq!(soa.invalid_way(set), model.invalid_way(set));
            prop_assert_eq!(soa.occupancy(set), model.occupancy(set));
            prop_assert_eq!(soa.get(set, way), model.get(set, way));
            prop_assert_eq!(soa.line_addr(set, way), model.line_addr(set, way));
        }

        prop_assert_eq!(soa.total_occupancy(), model.total_occupancy());
        for set in 0..SETS {
            for tag in 0..TAGS {
                prop_assert_eq!(soa.find(set, tag), model.find(set, tag));
            }
            for way in 0..WAYS {
                prop_assert_eq!(soa.get(set, way), model.get(set, way));
            }
        }
    }
}
