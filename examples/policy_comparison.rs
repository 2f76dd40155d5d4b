//! Compare replacement policies on a single thrash-prone workload.
//!
//! Demonstrates the cache substrate on its own: the same access stream is
//! replayed against LRU, FIFO, random, PLRU, DIP, DRRIP and NUcache, and
//! the hit rates are tabulated. The workload is the classic mixed
//! pattern that separates the policies: a reusable loop slightly larger
//! than the LRU reach, plus a polluting scan.
//!
//! Run with: `cargo run --release --example policy_comparison`

#![expect(clippy::expect_used, reason = "example program; a failure should abort it")]

use nucache_repro::cache::policy::{Dip, Drrip, Fifo, Lru, RandomEvict, TreePlru};
use nucache_repro::cache::{BasicCache, CacheGeometry, ReplacementPolicy, SharedLlc};
use nucache_repro::common::table::{f2, Table};
use nucache_repro::common::{AccessKind, CoreId, LineAddr, Pc};
use nucache_repro::core::{NuCache, NuCacheConfig};

/// The shared access pattern: a reusable loop of 6 lines per set buried
/// under twice as much scan traffic. Per-set reuse distance is ~18 —
/// beyond the 16-way LRU reach (thrash) but within NUcache's DeliWays
/// retention (8-deep FIFO fed only by the loop PC).
fn drive(mut touch: impl FnMut(LineAddr, Pc)) {
    let geom_sets = 256u64;
    let loop_lines = 6 * geom_sets;
    let loop_pc = Pc::new(0x100);
    let scan_pc = Pc::new(0x200);
    let mut scan = 1 << 30;
    for round in 0..600_000u64 {
        touch(LineAddr::new(round % loop_lines), loop_pc);
        for _ in 0..2 {
            touch(LineAddr::new(scan), scan_pc);
            scan += 1;
        }
    }
}

fn run_policy<P: ReplacementPolicy>(geom: CacheGeometry, policy: P) -> (String, f64) {
    let mut cache = BasicCache::new(geom, policy);
    drive(|line, pc| {
        cache.access(line, AccessKind::Read, CoreId::new(0), pc);
    });
    (cache.policy().name().to_string(), cache.stats().hit_rate())
}

fn main() {
    // 256 KiB, 16-way (256 sets): the loop's reuse distance exceeds the
    // LRU reach because of the interleaved scans.
    let geom = CacheGeometry::new(256 * 1024, 16, 64);
    let mut rows: Vec<(String, f64)> = vec![
        run_policy(geom, Lru::new(&geom)),
        run_policy(geom, Fifo::new(&geom)),
        run_policy(geom, RandomEvict::new(&geom, 1)),
        run_policy(geom, TreePlru::new(&geom)),
        run_policy(geom, Dip::new(&geom, 1)),
        run_policy(geom, Drrip::new(&geom, 1)),
    ];

    // NUcache with 8 of 16 ways as DeliWays and a fast epoch.
    let config = NuCacheConfig::default().with_deli_ways(8).with_epoch_len(20_000);
    let mut nucache = NuCache::new(geom, 1, config);
    drive(|line, pc| {
        nucache.access(CoreId::new(0), pc, line, AccessKind::Read);
    });
    rows.push((nucache.scheme_name(), nucache.stats().hit_rate()));

    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let mut t = Table::new(["policy", "hit_rate"]);
    for (name, hit_rate) in &rows {
        t.row([name.clone(), f2(hit_rate * 100.0) + "%"]);
    }
    println!("loop (reuse distance ~1.1x LRU reach) + heavy scan, 256KiB/16-way:\n");
    print!("{}", t.to_text());
    println!("\nLRU thrashes; thrash-resistant policies keep part of the loop;");
    println!("NUcache retains the loop PC's lines in its DeliWays.");
}
