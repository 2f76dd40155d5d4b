//! Not-recently-used replacement (single reference bit per line).

use crate::config::CacheGeometry;
use crate::policy::{FillCtx, ReplacementPolicy};

/// NRU replacement: one reference bit per line.
///
/// Hits and fills set the bit; the victim is the lowest-numbered way with
/// a clear bit. When every bit in a set is set, all bits (in that set) are
/// cleared first — the standard "epoch reset".
#[derive(Debug, Clone)]
pub struct Nru {
    assoc: usize,
    referenced: Vec<bool>,
}

impl Nru {
    /// Creates NRU state for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        Nru { assoc: geom.associativity(), referenced: vec![false; geom.num_lines()] }
    }

    fn set_bits(&mut self, set: usize) -> &mut [bool] {
        let base = set * self.assoc;
        &mut self.referenced[base..base + self.assoc]
    }
}

impl ReplacementPolicy for Nru {
    fn on_hit(&mut self, set: usize, way: usize) {
        self.referenced[set * self.assoc + way] = true;
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &FillCtx) {
        self.referenced[set * self.assoc + way] = true;
    }

    #[expect(clippy::expect_used, reason = "the set's bits were just cleared if all were set")]
    fn victim(&mut self, set: usize) -> usize {
        let bits = self.set_bits(set);
        if bits.iter().all(|&b| b) {
            bits.iter_mut().for_each(|b| *b = false);
        }
        let bits = self.set_bits(set);
        bits.iter().position(|&b| !b).expect("cleared at least one bit")
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.referenced[set * self.assoc + way] = false;
    }

    fn name(&self) -> &'static str {
        "nru"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::BasicCache;
    use crate::policy::testutil::{one_set, touch};

    #[test]
    fn victim_prefers_unreferenced() {
        let g = one_set(4);
        let mut p = Nru::new(&g);
        let ctx = FillCtx::new(nucache_common::CoreId::new(0), nucache_common::Pc::new(0));
        for w in 0..4 {
            p.on_fill(0, w, &ctx);
        }
        // All referenced: victim forces a reset then picks way 0.
        assert_eq!(p.victim(0), 0);
        // After the reset, touching way 1 protects it.
        p.on_hit(0, 1);
        assert_eq!(p.victim(0), 0);
        p.on_hit(0, 0);
        assert_eq!(p.victim(0), 2);
    }

    #[test]
    fn behaves_in_cache() {
        let g = one_set(2);
        let mut c = BasicCache::new(g, Nru::new(&g));
        touch(&mut c, 0);
        touch(&mut c, 1);
        assert!(touch(&mut c, 0));
        assert!(touch(&mut c, 1));
        touch(&mut c, 2);
        // One of {0,1} was evicted; cache still functions and hits on 2.
        assert!(touch(&mut c, 2));
    }
}
