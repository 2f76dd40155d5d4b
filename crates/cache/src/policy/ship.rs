//! SHiP-PC: Signature-based Hit Prediction (Wu et al., MICRO 2011).
//!
//! A successor to the PC-based line of work NUcache belongs to, included
//! as an extra comparison point. SHiP keeps SRRIP's eviction rule but
//! predicts each fill's re-reference behaviour from the *signature* (here
//! the allocating PC, hashed): a table of saturating counters (SHCT)
//! learns, per signature, whether lines get re-referenced before
//! eviction. Fills from never-reused signatures insert at distant RRPV
//! (immediate victim candidates); others insert at long.

use crate::config::CacheGeometry;
use crate::policy::{FillCtx, ReplacementPolicy};
use nucache_common::Pc;

const RRPV_BITS: u32 = 2;
const RRPV_MAX: u8 = (1 << RRPV_BITS) - 1;
const SHCT_MAX: u8 = 7; // 3-bit counters, as proposed

/// SHiP-PC replacement policy.
///
/// # Examples
///
/// ```
/// use nucache_cache::{BasicCache, CacheGeometry, ReplacementPolicy, policy::ShipPc};
/// let geom = CacheGeometry::new(64 * 1024, 16, 64);
/// let cache = BasicCache::new(geom, ShipPc::new(&geom));
/// assert_eq!(cache.policy().name(), "ship-pc");
/// ```
#[derive(Debug, Clone)]
pub struct ShipPc {
    assoc: usize,
    rrpv: Vec<u8>,
    /// Signature that allocated each line.
    line_sig: Vec<u16>,
    /// Whether each line has been re-referenced since its fill.
    reused: Vec<bool>,
    /// Signature history counter table.
    shct: Vec<u8>,
}

/// Entries in the signature history counter table (16K, as proposed).
pub const SHCT_ENTRIES: usize = 16 * 1024;

impl ShipPc {
    /// Creates SHiP-PC state for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        ShipPc {
            assoc: geom.associativity(),
            rrpv: vec![RRPV_MAX; geom.num_lines()],
            line_sig: vec![0; geom.num_lines()],
            reused: vec![false; geom.num_lines()],
            // Weakly "reuses" so new signatures are not written off
            // before evidence arrives.
            shct: vec![1; SHCT_ENTRIES],
        }
    }

    /// Hashes a PC into a signature-table index.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "masked to SHCT_ENTRIES - 1, which fits u16"
    )]
    fn signature(pc: Pc) -> u16 {
        // Fold the PC; drop the low instruction-alignment bits.
        let x = pc.0 >> 2;
        ((x ^ (x >> 14) ^ (x >> 28)) & (SHCT_ENTRIES as u64 - 1)) as u16
    }

    /// Current predicted-reuse counter for a PC (for tests).
    pub fn prediction_for(&self, pc: Pc) -> u8 {
        self.shct[Self::signature(pc) as usize]
    }

    fn frame(&self, set: usize, way: usize) -> usize {
        set * self.assoc + way
    }

    /// Records the outcome of a line leaving frame `f`.
    fn train_on_departure(&mut self, f: usize) {
        let sig = self.line_sig[f] as usize;
        if self.reused[f] {
            self.shct[sig] = (self.shct[sig] + 1).min(SHCT_MAX);
        } else {
            self.shct[sig] = self.shct[sig].saturating_sub(1);
        }
    }
}

impl ReplacementPolicy for ShipPc {
    fn on_hit(&mut self, set: usize, way: usize) {
        let f = self.frame(set, way);
        self.rrpv[f] = 0;
        self.reused[f] = true;
    }

    fn on_fill(&mut self, set: usize, way: usize, ctx: &FillCtx) {
        let f = self.frame(set, way);
        // The departing line (if it carried state) trains the table when
        // the cache reuses a frame directly; eviction-driven departures
        // are trained in `victim`.
        let sig = Self::signature(ctx.pc);
        self.line_sig[f] = sig;
        self.reused[f] = false;
        self.rrpv[f] = if self.shct[sig as usize] == 0 { RRPV_MAX } else { RRPV_MAX - 1 };
    }

    fn victim(&mut self, set: usize) -> usize {
        let base = set * self.assoc;
        let way = loop {
            if let Some(w) = (0..self.assoc).find(|&w| self.rrpv[base + w] == RRPV_MAX) {
                break w;
            }
            for w in 0..self.assoc {
                self.rrpv[base + w] += 1;
            }
        };
        self.train_on_departure(base + way);
        way
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        let f = self.frame(set, way);
        self.train_on_departure(f);
        self.rrpv[f] = RRPV_MAX;
        self.reused[f] = false;
    }

    fn name(&self) -> &'static str {
        "ship-pc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::BasicCache;
    use crate::policy::testutil::one_set;
    use nucache_common::{AccessKind, CoreId, LineAddr};

    fn read(c: &mut BasicCache<ShipPc>, pc: u64, line: u64) -> bool {
        c.access(LineAddr::new(line), AccessKind::Read, CoreId::new(0), Pc::new(pc)).is_hit()
    }

    #[test]
    fn streaming_pc_learns_distant_insertion() {
        let g = one_set(4);
        let mut c = BasicCache::new(g, ShipPc::new(&g));
        // PC 0x200 streams; every line dies unreused.
        for n in 0..64 {
            read(&mut c, 0x200, 1000 + n);
        }
        assert_eq!(c.policy().prediction_for(Pc::new(0x200)), 0, "streamer must be written off");
    }

    #[test]
    fn reused_pc_keeps_positive_prediction() {
        let g = one_set(4);
        let mut c = BasicCache::new(g, ShipPc::new(&g));
        for _ in 0..50 {
            for n in 0..3 {
                read(&mut c, 0x100, n);
            }
        }
        assert!(c.policy().prediction_for(Pc::new(0x100)) > 0);
    }

    #[test]
    fn reusers_survive_a_written_off_stream() {
        let g = one_set(4);
        let mut c = BasicCache::new(g, ShipPc::new(&g));
        // Train: establish the stream as useless.
        for n in 0..200 {
            read(&mut c, 0x200, 1000 + n);
        }
        // Working pair from a reusing PC.
        read(&mut c, 0x100, 0);
        read(&mut c, 0x100, 1);
        read(&mut c, 0x100, 0);
        read(&mut c, 0x100, 1);
        // Stream continues; its distant-inserted lines evict each other.
        let mut reuse_hits = 0;
        for n in 0..40 {
            read(&mut c, 0x200, 2000 + n);
            if read(&mut c, 0x100, n % 2) {
                reuse_hits += 1;
            }
        }
        assert!(reuse_hits >= 38, "SHiP must shield reusers from a known stream: {reuse_hits}/40");
    }

    #[test]
    fn signature_hash_stays_in_table() {
        for pc in [0u64, 4, 0xdead_beef, u64::MAX] {
            assert!((ShipPc::signature(Pc::new(pc)) as usize) < SHCT_ENTRIES);
        }
    }
}
