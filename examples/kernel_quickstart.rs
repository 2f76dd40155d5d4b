//! Quickstart for the embeddable `nucache-kernel` library: a software
//! cache with two insertion classes, one reusable and one streaming,
//! and the epoch selector learning to retain only the reusable one.
//!
//! Run with: `cargo run --release --example kernel_quickstart`

#![expect(clippy::expect_used, reason = "example program; a failure should abort it")]

use nucache_kernel::{InsertionClass, KernelConfig, Lookup, NucacheKernel};

fn main() {
    // 256 sets x 8 ways; 4 ways per set form the DeliWays, which
    // retain evictions of the currently chosen classes. A short epoch
    // and an unsampled monitor make the demo converge in seconds.
    let mut config = KernelConfig::default()
        .with_sets(256)
        .with_ways(8)
        .with_deli_ways(4)
        .with_epoch_len(20_000);
    config.monitor_shift = 0; // observe every set (demo-sized cache)
    let mut cache: NucacheKernel<Payload> = NucacheKernel::init(config).expect("config is valid");

    // Classify insertions by their source. Here: a tenant whose working
    // set loops (near Next-Use distances — retention pays off) and a
    // tenant running a scan (every key is touched once — retention is
    // pure pollution).
    let loop_tenant = InsertionClass::new(1);
    let scan_tenant = InsertionClass::new(2);

    // The looping working set: 6 entries per set — larger than the
    // 4 MainWays (so plain LRU thrashes: a cyclic loop one entry over
    // capacity misses every time), comfortably within MainWays +
    // DeliWays once the loop tenant is chosen.
    let loop_keys = 6 * 256u64;
    let mut scan_key = 1 << 32;
    let mut loop_hits = 0u64;
    let mut loop_lookups = 0u64;

    println!("driving a looping tenant against a scanning tenant...\n");
    for round in 0..600_000u64 {
        let key = round % loop_keys;
        loop_lookups += 1;
        // `get` is the read path: it records the access for selection
        // and returns a mutable borrow on hit, allocating nothing.
        match cache.get(key, loop_tenant) {
            Lookup::Hit { value, .. } => {
                value.touches += 1;
                loop_hits += 1;
            }
            Lookup::Miss => {
                // The kernel never fetches; the caller decides what a
                // miss costs and whether to insert (demand fill here).
                cache.put(key, loop_tenant, Payload::fetch(key));
            }
        }

        // The scan touches every key exactly once.
        if round % 2 == 0 {
            if cache.get(scan_key, scan_tenant).is_hit() {
                unreachable!("scan keys are never revisited");
            }
            cache.put(scan_key, scan_tenant, Payload::fetch(scan_key));
            scan_key += 1;
        }
    }

    // `remove` invalidates a key wherever it is resident.
    cache.remove(0);

    println!("epochs completed:       {}", cache.epochs());
    println!("chosen classes:         {:?}", cache.chosen_classes());
    println!("DeliWays fills / hits:  {} / {}", cache.deli_fills(), cache.deli_hits());
    println!("loop-tenant hit rate:   {:.1}%", 100.0 * loop_hits as f64 / loop_lookups as f64);
    println!("overall hits / misses:  {} / {}", cache.hits(), cache.misses());
    println!();

    let chosen = cache.chosen_classes();
    if chosen.contains(&loop_tenant) && !chosen.contains(&scan_tenant) {
        println!("=> the selector admitted the looping tenant to the DeliWays");
        println!("   and kept the scan out — the NUcache mechanism, re-keyed");
        println!("   from program counters to caller-chosen insertion classes.");
    } else {
        println!("=> unexpected selection; try more rounds or a longer epoch.");
    }
}

/// A stand-in for whatever the cache protects (a parsed object, a
/// query result). The kernel is generic over the value type and never
/// clones it.
struct Payload {
    #[allow(dead_code)]
    key: u64,
    touches: u64,
}

impl Payload {
    fn fetch(key: u64) -> Self {
        Payload { key, touches: 0 }
    }
}
