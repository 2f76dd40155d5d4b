//! Pins the documented configuration to the code.
//!
//! DESIGN.md (§10.1, §15.3) and EXPERIMENTS.md state the reproduced
//! design point as markdown tables whose rows name a constant in
//! backticks. [`documented_constants_match_the_docs`] reads both
//! documents and checks every such row against the constant's real
//! value, which the compiler supplies. The other tests bind the
//! constants to the actual `SimConfig::baseline` / `NuCacheConfig` /
//! `KernelConfig` wiring, so a retuned default cannot silently diverge
//! from either the docs or the constant it is named after.

use nucache_cache::config::DEFAULT_BLOCK_BYTES;
use nucache_common::interleave::{DEFAULT_PREEMPTION_BOUND, MAX_MODEL_THREADS, MAX_SCHEDULES};
use nucache_core::config::{
    DEFAULT_DELI_WAYS, DEFAULT_EPOCH_LEN, DEFAULT_HISTOGRAM_BUCKETS, DEFAULT_MAX_CANDIDATES,
    DEFAULT_MONITOR_DEPTH, DEFAULT_MONITOR_SHIFT, DEFAULT_ORACLE_POOL,
};
use nucache_core::NuCacheConfig;
use nucache_sim::config::{
    BASELINE_L1_BYTES, BASELINE_L1_WAYS, BASELINE_L2_BYTES, BASELINE_L2_WAYS,
    BASELINE_LLC_BYTES_PER_CORE, BASELINE_LLC_WAYS, BASELINE_MEASURE_ACCESSES, BASELINE_SEED,
    BASELINE_WARMUP_ACCESSES,
};
use nucache_sim::scheme::PARTITION_EPOCH;
use nucache_sim::SimConfig;

/// The documents whose tables bind values to constants.
const DOCS: &[(&str, &str)] = &[
    ("DESIGN.md", include_str!("../../../DESIGN.md")),
    ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
];

/// `(name, value)` for each listed constant; the name is the identifier
/// itself, so renaming a constant breaks the build of this test.
macro_rules! constants {
    ($($name:ident),* $(,)?) => {
        &[$((stringify!($name), $name as u128)),*]
    };
}

/// Every constant a documentation table names.
const DOCUMENTED: &[(&str, u128)] = constants![
    DEFAULT_DELI_WAYS,
    DEFAULT_EPOCH_LEN,
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_ORACLE_POOL,
    DEFAULT_MONITOR_SHIFT,
    DEFAULT_MONITOR_DEPTH,
    DEFAULT_HISTOGRAM_BUCKETS,
    DEFAULT_BLOCK_BYTES,
    DEFAULT_PREEMPTION_BOUND,
    MAX_SCHEDULES,
    MAX_MODEL_THREADS,
    BASELINE_L1_BYTES,
    BASELINE_L1_WAYS,
    BASELINE_L2_BYTES,
    BASELINE_L2_WAYS,
    BASELINE_LLC_BYTES_PER_CORE,
    BASELINE_LLC_WAYS,
    BASELINE_WARMUP_ACCESSES,
    BASELINE_MEASURE_ACCESSES,
    BASELINE_SEED,
    PARTITION_EPOCH,
];

/// Whether a backticked word names a constant: UPPER_SNAKE with an
/// underscore or at least four characters.
fn is_const_name(word: &str) -> bool {
    word.starts_with(|c: char| c.is_ascii_uppercase())
        && word.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        && (word.contains('_') || word.len() >= 4)
}

/// An integer cell: `100_000`, `0x5eed_2011`, optionally backticked.
fn parse_value(cell: &str) -> Option<u128> {
    let digits = cell.trim().trim_matches('`').replace('_', "");
    match digits.strip_prefix("0x") {
        Some(hex) => u128::from_str_radix(hex, 16).ok(),
        None => digits.parse().ok(),
    }
}

/// `(document, line, constant, value cell)` for every table row that
/// names a constant in backticks; the value is the row's last cell.
fn doc_rows() -> Vec<(&'static str, usize, String, String)> {
    let mut rows = Vec::new();
    for (doc, text) in DOCS {
        for (i, line) in text.lines().enumerate() {
            let Some(row) = line.trim().strip_prefix('|') else { continue };
            let cells: Vec<&str> = row.trim_end_matches('|').split('|').collect();
            let name = cells
                .iter()
                .flat_map(|c| c.split('`').skip(1).step_by(2))
                .find(|w| is_const_name(w));
            if let (Some(name), Some(value)) = (name, cells.last()) {
                rows.push((*doc, i + 1, name.to_string(), value.trim().to_string()));
            }
        }
    }
    rows
}

#[test]
fn documented_constants_match_the_docs() {
    let rows = doc_rows();
    let mut problems = Vec::new();
    for (doc, line, name, cell) in &rows {
        let actual = DOCUMENTED.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        match (actual, parse_value(cell)) {
            (None, _) => problems.push(format!("{doc}:{line}: `{name}` is not a known constant")),
            (Some(_), None) => {
                problems.push(format!("{doc}:{line}: `{name}` has no integer value: {cell:?}"));
            }
            (Some(actual), Some(documented)) if actual != documented => problems
                .push(format!("{doc}:{line}: `{name}` documented as {cell} but is {actual}")),
            _ => {}
        }
    }
    for (name, _) in DOCUMENTED {
        if !rows.iter().any(|(_, _, n, _)| n == name) {
            problems.push(format!("`{name}` is listed here but no doc table row names it"));
        }
    }
    assert!(problems.is_empty(), "doc tables and constants disagree:\n{}", problems.join("\n"));
}

#[test]
fn doc_row_parsing() {
    assert!(is_const_name("DEFAULT_EPOCH_LEN") && is_const_name("SEED"));
    assert!(!is_const_name("DeliWays") && !is_const_name("LRU") && !is_const_name("fn"));
    assert_eq!(parse_value(" 100_000 "), Some(100_000));
    assert_eq!(parse_value("0x5eed_2011"), Some(0x5eed_2011));
    assert_eq!(parse_value("`65536`"), Some(65536));
    assert_eq!(parse_value("8 ways"), None);
}

#[test]
fn baseline_sim_config_uses_named_constants() {
    for cores in [1usize, 2, 4, 8] {
        let c = SimConfig::baseline(cores);
        assert_eq!(c.l1.size_bytes(), BASELINE_L1_BYTES);
        assert_eq!(c.l1.associativity(), BASELINE_L1_WAYS);
        assert_eq!(c.l2.size_bytes(), BASELINE_L2_BYTES);
        assert_eq!(c.l2.associativity(), BASELINE_L2_WAYS);
        assert_eq!(c.llc.size_bytes(), cores as u64 * BASELINE_LLC_BYTES_PER_CORE);
        assert_eq!(c.llc.associativity(), BASELINE_LLC_WAYS);
        for geom in [c.l1, c.l2, c.llc] {
            assert_eq!(geom.block_bytes(), DEFAULT_BLOCK_BYTES);
        }
        assert_eq!(c.warmup_accesses, BASELINE_WARMUP_ACCESSES);
        assert_eq!(c.measure_accesses, BASELINE_MEASURE_ACCESSES);
        assert_eq!(c.seed, BASELINE_SEED);
    }
}

/// The driver splits addresses at the trace crate's block granularity;
/// the cache geometries are built with their own block-bytes constant.
/// These are one physical quantity — if either constant is retuned
/// without the other, every line address the driver derives would be
/// sheared against the sets the caches index.
#[test]
fn trace_block_bits_match_cache_block_bytes() {
    assert_eq!(1u64 << nucache_trace::BLOCK_BITS, u64::from(DEFAULT_BLOCK_BYTES));
    assert_eq!(nucache_trace::BLOCK_BYTES, u64::from(DEFAULT_BLOCK_BYTES));
}

#[test]
fn default_nucache_config_uses_named_constants() {
    let nu = NuCacheConfig::default();
    assert_eq!(nu.deli_ways, DEFAULT_DELI_WAYS);
    assert_eq!(nu.epoch_len, DEFAULT_EPOCH_LEN);
    assert_eq!(nu.max_candidates, DEFAULT_MAX_CANDIDATES);
    assert_eq!(nu.oracle_pool, DEFAULT_ORACLE_POOL);
    assert_eq!(nu.monitor_shift, DEFAULT_MONITOR_SHIFT);
    assert_eq!(nu.monitor_depth, DEFAULT_MONITOR_DEPTH);
    assert_eq!(nu.histogram_buckets, DEFAULT_HISTOGRAM_BUCKETS);
    // The design point leaves half the 16-way LLC as MainWays.
    assert_eq!(BASELINE_LLC_WAYS - nu.deli_ways, 8);
}

/// The embeddable kernel's defaults are the same design point as the
/// simulator's: every shared policy knob of
/// [`nucache_kernel::KernelConfig::default`] must equal the
/// corresponding `DEFAULT_*` constant / [`NuCacheConfig`] default, and
/// its default geometry must be the baseline LLC way count. A library
/// embedder starting from `KernelConfig::default()` then gets exactly
/// the configuration the paper's results were reproduced with.
#[test]
fn kernel_defaults_match_simulator_design_point() {
    let k = nucache_kernel::KernelConfig::default();
    let nu = NuCacheConfig::default();
    assert_eq!(k.ways, BASELINE_LLC_WAYS);
    assert_eq!(k.deli_ways, DEFAULT_DELI_WAYS);
    assert_eq!(k.epoch_len, DEFAULT_EPOCH_LEN);
    assert_eq!(k.max_candidates, DEFAULT_MAX_CANDIDATES);
    assert_eq!(k.oracle_pool, DEFAULT_ORACLE_POOL);
    assert_eq!(k.monitor_shift, DEFAULT_MONITOR_SHIFT);
    assert_eq!(k.monitor_depth, DEFAULT_MONITOR_DEPTH);
    assert_eq!(k.histogram_buckets, DEFAULT_HISTOGRAM_BUCKETS);
    assert_eq!(k.promote_on_deli_hit, nu.promote_on_deli_hit);
    assert_eq!(k.deli_hit_refresh, nu.deli_hit_refresh);
    assert_eq!(k.strategy, nu.strategy);
    assert_eq!(k.seed, nu.seed);
    assert_eq!(k.sets, nucache_kernel::DEFAULT_SETS);
    assert_eq!(k.ways, nucache_kernel::DEFAULT_WAYS);
}

/// Lowering the simulator configuration to a kernel configuration is
/// field-faithful: `NuCacheConfig::to_kernel` plus the geometry equals
/// the kernel config the adapter runs on.
#[test]
fn to_kernel_lowering_is_field_faithful() {
    let nu = NuCacheConfig::default().with_deli_ways(4).with_epoch_len(777).with_seed(42);
    let k = nu.to_kernel(2048, BASELINE_LLC_WAYS);
    assert_eq!(k.sets, 2048);
    assert_eq!(k.ways, BASELINE_LLC_WAYS);
    assert_eq!(k.deli_ways, 4);
    assert_eq!(k.epoch_len, 777);
    assert_eq!(k.seed, 42);
    assert_eq!(k.max_candidates, nu.max_candidates);
    assert_eq!(k.oracle_pool, nu.oracle_pool);
    assert_eq!(k.monitor_shift, nu.monitor_shift);
    assert_eq!(k.monitor_depth, nu.monitor_depth);
    assert_eq!(k.histogram_buckets, nu.histogram_buckets);
    assert!(k.validate().is_ok());
}
