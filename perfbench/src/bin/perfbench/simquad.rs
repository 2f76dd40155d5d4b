//! `sim_quad`: the serial paper-reproduction path.
//!
//! One pass evaluates the headline suite (lru, ucp, pipp, tadip,
//! nucache) on `mix4_01` and `mix4_02` of the 4-core baseline with a
//! fresh [`Evaluator`] per simulation seed, exactly as a reproducer's
//! experiment binary would. A run covers eight seeds derived from the
//! workload seed, one pass each, in turn: one short run per seed swings
//! the weighted speedups by several percent, and averaging over seeds is
//! what a reproduction reports anyway. Passes repeat until the time
//! budget is spent; a repeated seed must reproduce its results exactly
//! (same digest), and each result is checked.

use crate::report::{median, Outcome};
use crate::spans::Span;
use nucache_cache::hierarchy::{PrivateHierarchy, PrivateOutcome};
use nucache_cache::SharedLlc;
use nucache_common::telemetry::{Event, EventSink};
use nucache_common::{mix64, Access, AccessKind, Addr, CoreId, LineAddr, Pc};
use nucache_core::NuCache;
use nucache_sim::scheme::BuiltLlc;
use nucache_sim::{
    run_mix, run_mix_on, run_mix_telemetry, take_simulated_accesses, Evaluator, Scheme, SimConfig,
    SimResult,
};
use nucache_trace::{Mix, TraceGen, BLOCK_BITS, TRACE_BLOCK};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-core warm-up accesses of every run in a pass.
const WARMUP: u64 = 25_000;
/// Per-core measured accesses of every run in a pass.
const MEASURE: u64 = 75_000;
const MIX_NAMES: [&str; 2] = ["mix4_01", "mix4_02"];

/// Simulation seeds one pass covers, derived from the workload seed.
const SUB_SEEDS: u64 = 8;

/// One 4-core baseline configuration per sub-seed.
fn configs(seed: u64, warmup: u64, measure: u64) -> Vec<SimConfig> {
    (0..SUB_SEEDS)
        .map(|j| {
            SimConfig::baseline(4)
                .with_seed(mix64(seed ^ mix64(j)))
                .with_run_lengths(warmup, measure)
        })
        .collect()
}

fn mixes() -> Vec<Mix> {
    Mix::quad_core_suite().into_iter().filter(|m| MIX_NAMES.contains(&m.name())).collect()
}

/// Short scheme label used in metric names.
fn label(scheme: &Scheme) -> &'static str {
    match scheme {
        Scheme::Lru => "lru",
        Scheme::Ucp => "ucp",
        Scheme::Pipp => "pipp",
        Scheme::Tadip => "tadip",
        Scheme::NuCache(_) => "nucache",
        _ => "other",
    }
}

/// One `(mix, scheme)` evaluation.
struct Cell {
    sub_seed: usize,
    scheme: &'static str,
    seconds: f64,
    accesses: u64,
    weighted_speedup: f64,
    result: SimResult,
}

struct Pass {
    setup_s: f64,
    /// Host time and simulated core accesses of the cells.
    seconds: f64,
    accesses: u64,
    cells: Vec<Cell>,
    failed: u64,
}

impl Pass {
    fn ops_per_s(&self) -> f64 {
        self.accesses as f64 / self.seconds
    }

    /// Host ns per simulated access of each `(mix, scheme)` pair,
    /// pooled over the pass's sub-seeds.
    fn cell_ns(&self) -> Vec<f64> {
        let mut pooled: Vec<(&str, &str, f64, u64)> = Vec::new();
        for c in &self.cells {
            match pooled.iter_mut().find(|p| p.0 == c.result.mix && p.1 == c.scheme) {
                Some(p) => {
                    p.2 += c.seconds;
                    p.3 += c.accesses;
                }
                None => pooled.push((&c.result.mix, c.scheme, c.seconds, c.accesses)),
            }
        }
        pooled.iter().map(|p| p.2 * 1e9 / p.3 as f64).collect()
    }

    fn digest(&self) -> u64 {
        digest(self.cells.iter().map(|c| &c.result))
    }
}

/// Geomean over (sub-seed, mix) of WS(nucache) / WS(lru).
fn ws_gain_vs_lru(cells: &[&Cell]) -> f64 {
    let lru = |n: &Cell| {
        cells
            .iter()
            .find(|c| c.sub_seed == n.sub_seed && c.result.mix == n.result.mix && c.scheme == "lru")
            .map(|c| c.weighted_speedup)
            .expect("every headline cell ran")
    };
    let logs: Vec<f64> = cells
        .iter()
        .filter(|c| c.scheme == "nucache")
        .map(|n| (n.weighted_speedup / lru(n)).ln())
        .collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// An exact digest of every field of `results`, folded to 52 bits so it
/// survives a JSON number unchanged.
fn digest<'a>(results: impl Iterator<Item = &'a SimResult>) -> u64 {
    let mut h = 0u64;
    let mut eat = |x: u64| h = mix64(h ^ x);
    for r in results {
        r.scheme.bytes().chain(r.mix.bytes()).for_each(|b| eat(u64::from(b)));
        for c in &r.per_core {
            c.workload.bytes().for_each(|b| eat(u64::from(b)));
            for x in [c.ipc.to_bits(), c.instructions, c.cycles, c.llc_mpki.to_bits()] {
                eat(x);
            }
            for x in [c.llc.hits, c.llc.misses, c.llc.evictions, c.llc.writebacks] {
                eat(x);
            }
        }
        let t = r.llc_totals;
        for x in [t.hits, t.misses, t.evictions, t.writebacks] {
            eat(x);
        }
    }
    h >> 12
}

/// Sanity of one result: every core ran and has a finite positive IPC,
/// the per-core LLC counters fit inside the totals, and no core beats
/// its solo run by more than noise (the 5% the evaluator's own tests
/// allow), so weighted speedup stays within 1.05 x the core count.
fn result_ok(r: &SimResult, weighted_speedup: f64) -> bool {
    let cores_ok = r.per_core.len() == 4
        && r.per_core
            .iter()
            .all(|c| c.instructions > 0 && c.cycles > 0 && c.ipc.is_finite() && c.ipc > 0.0);
    let per_core: u64 = r.per_core.iter().map(|c| c.llc.hits + c.llc.misses).sum();
    let totals = r.llc_totals.hits + r.llc_totals.misses;
    cores_ok
        && totals > 0
        && per_core <= totals
        && weighted_speedup.is_finite()
        && weighted_speedup > 0.0
        && weighted_speedup <= 1.05 * r.per_core.len() as f64
}

/// Evaluates every headline cell of the sub-seeds `which`. The set-up
/// is everything before the first cell: building the evaluators and
/// their solo baselines, the single-core runs every cell is normalized
/// by.
fn pass(configs: &[SimConfig], which: &[usize], mixes: &[Mix]) -> Pass {
    let start = Instant::now();
    let mut evals: Vec<Evaluator> =
        which.iter().map(|&j| Evaluator::new(configs[j]).with_telemetry(None)).collect();
    for eval in &mut evals {
        for mix in mixes {
            for &w in mix.workloads() {
                eval.solo(w);
            }
        }
    }
    let setup_s = start.elapsed().as_secs_f64();
    take_simulated_accesses();
    let start = Instant::now();
    let mut accesses = 0;
    let mut cells = Vec::new();
    let mut failed = 0;
    for (&sub_seed, eval) in which.iter().zip(evals.iter_mut()) {
        for (mix, scheme) in
            mixes.iter().flat_map(|m| Scheme::headline_suite().into_iter().map(move |s| (m, s)))
        {
            let t = Instant::now();
            let (result, metrics) = eval.evaluate(mix, &scheme);
            let seconds = t.elapsed().as_secs_f64();
            let n = take_simulated_accesses();
            accesses += n;
            if !result_ok(&result, metrics.weighted_speedup) {
                failed += 1;
            }
            cells.push(Cell {
                sub_seed,
                scheme: label(&scheme),
                seconds,
                accesses: n,
                weighted_speedup: metrics.weighted_speedup,
                result,
            });
        }
    }
    Pass { setup_s, seconds: start.elapsed().as_secs_f64(), accesses, cells, failed }
}

/// Runs one pass per sub-seed in turn until `budget` is spent, and at
/// least one pass of each. Short passes let the medians over passes
/// shed host stalls. A pass whose digest differs from the first pass of
/// its sub-seed fails all its cells.
fn passes(configs: &[SimConfig], mixes: &[Mix], budget: Duration) -> (Vec<Pass>, u64, u64) {
    let start = Instant::now();
    let mut out: Vec<Pass> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    loop {
        let j = out.len() % configs.len();
        let p = pass(configs, &[j], mixes);
        attempted += p.cells.len() as u64;
        failed += if out.get(j).is_some_and(|f| f.digest() != p.digest()) {
            p.cells.len() as u64
        } else {
            p.failed
        };
        let last = Duration::from_secs_f64(p.seconds + p.setup_s);
        out.push(p);
        if out.len() >= configs.len() && start.elapsed() + last > budget {
            return (out, attempted, failed);
        }
    }
}

pub fn run(seed: u64, budget: Duration, traced: bool) -> Outcome {
    let configs = configs(seed, WARMUP, MEASURE);
    let mixes = mixes();
    if !traced {
        let (ps, attempted, failed) = passes(&configs, &mixes, budget);
        let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&ps.iter().map(f).collect::<Vec<_>>());
        let mut o = Outcome { attempted, failed, ..Outcome::default() };
        o.set("setup_s", per_pass(&|p| p.setup_s));
        o.set("ops_per_s", per_pass(&|p| p.ops_per_s()));
        o.set("p50_ns", per_pass(&|p| quantile(&p.cell_ns(), 0.5)));
        o.set("p99_ns", per_pass(&|p| quantile(&p.cell_ns(), 0.99)));
        let first_cycle = &ps[..configs.len()];
        let cells: Vec<&Cell> = first_cycle.iter().flat_map(|p| &p.cells).collect();
        o.set("quality_ratio", ws_gain_vs_lru(&cells));
        let digest = digest(cells.iter().map(|c| &c.result));
        println!("sim_quad passes={} digest={digest:013x}", ps.len());
        return o;
    }
    traced_run(&configs, &mixes)
}

/// Nearest-rank quantile of a small sample.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The traced run: standalone replays of each layer and of the three
/// driver entry points on the same mixes and seed, then two passes over
/// every sub-seed that must agree exactly; the second is split into
/// per-scheme and solo spans. The replays run first so that neither pass
/// is the process's first simulation, which pays for fresh memory.
fn traced_run(configs: &[SimConfig], mixes: &[Mix]) -> Outcome {
    let layers = LayerSpans::measure(&configs[0], mixes);
    let paths = DriverPaths::measure(&configs[0], mixes);
    let all: Vec<usize> = (0..configs.len()).collect();
    let first = pass(configs, &all, mixes);
    let traced = pass(configs, &all, mixes);
    let mut o = Outcome { attempted: 2 * traced.cells.len() as u64, ..Outcome::default() };
    o.failed = first.failed + traced.failed;
    if first.digest() != traced.digest() {
        o.failed += traced.cells.len() as u64;
    }
    o.set("sim.result_digest", traced.digest() as f64);
    o.set("sim.solo_s", traced.setup_s);
    for scheme in Scheme::headline_suite() {
        let name = match label(&scheme) {
            "lru" => "sim.run_mix.lru_s",
            "ucp" => "sim.run_mix.ucp_s",
            "pipp" => "sim.run_mix.pipp_s",
            "tadip" => "sim.run_mix.tadip_s",
            _ => "sim.run_mix.nucache_s",
        };
        let s: f64 =
            traced.cells.iter().filter(|c| c.scheme == label(&scheme)).map(|c| c.seconds).sum();
        o.set(name, s);
    }
    // The per-scheme spans are the per-cell times every pass records, and
    // the layer spans come from the separate replays, so tracing adds no
    // span to a pass.
    o.set("bench.trace_overhead_frac", 0.0);

    o.set("trace.fill_block_ns", layers.fill.mean_ns());
    o.set("cache.private_ns", layers.private.mean_ns());
    let llc_frac = layers.llc_requests as f64 / layers.private.count as f64;
    o.set("cache.llc_frac", llc_frac);
    o.set("cache.llc_lru_ns", layers.llc[0].mean_ns());
    o.set("partition.llc_ucp_ns", layers.llc[1].mean_ns());
    o.set("partition.llc_pipp_ns", layers.llc[2].mean_ns());
    o.set("cache.llc_tadip_ns", layers.llc[3].mean_ns());
    o.set("core.llc_nucache_ns", layers.llc[4].mean_ns());

    // The layer and driver-path replays ran on sub-seed 0.
    let nucache_cells: Vec<&Cell> =
        traced.cells.iter().filter(|c| c.scheme == "nucache" && c.sub_seed == 0).collect();
    let mono_ns = nucache_cells.iter().map(|c| c.seconds).sum::<f64>() * 1e9
        / nucache_cells.iter().map(|c| c.accesses).sum::<u64>() as f64;
    o.set(
        "sim.driver_residual_ns",
        mono_ns
            - layers.fill.mean_ns()
            - layers.private.mean_ns()
            - llc_frac * layers.llc[4].mean_ns(),
    );

    o.attempted += paths.checked + nucache_cells.len() as u64;
    o.failed += paths.mismatches;
    for c in &nucache_cells {
        if !paths.results.contains(&c.result) {
            o.failed += 1;
        }
    }
    o.set("sim.dyn_over_mono", paths.dyn_s / paths.mono_s);
    o.set("core.deli_hit_share", paths.deli_hits as f64 / paths.llc_hits.max(1) as f64);
    o.set("core.epochs", paths.epochs as f64);
    o
}

/// One LLC request of the replayed stream.
#[derive(Clone, Copy)]
struct LlcRequest {
    core: CoreId,
    pc: Pc,
    line: LineAddr,
    kind: AccessKind,
}

/// Standalone per-layer replays of one pass's mixes and seed.
struct LayerSpans {
    /// `TraceGen::fill_block`, counted per generated access.
    fill: Span,
    /// `PrivateHierarchy::access`, counted per core access.
    private: Span,
    /// LLC requests (demand plus write-back) the private levels let through.
    llc_requests: u64,
    /// `SharedLlc::access` per headline scheme, in suite order.
    llc: Vec<Span>,
}

impl LayerSpans {
    fn measure(config: &SimConfig, mixes: &[Mix]) -> LayerSpans {
        let mut out = LayerSpans {
            fill: Span::default(),
            private: Span::default(),
            llc_requests: 0,
            llc: vec![Span::default(); Scheme::headline_suite().len()],
        };
        for mix in mixes {
            let stream = out.filter_mix(config, mix);
            out.llc_requests += stream.len() as u64;
            for (span, scheme) in out.llc.iter_mut().zip(Scheme::headline_suite()) {
                let mut built = scheme.build_concrete(config.llc, config.num_cores, config.seed);
                let (ns, hits) = match &mut built {
                    BuiltLlc::Lru(l) => replay(l, &stream),
                    BuiltLlc::Ucp(l) => replay(l, &stream),
                    BuiltLlc::Pipp(l) => replay(l, &stream),
                    BuiltLlc::Tadip(l) => replay(l, &stream),
                    BuiltLlc::NuCache(l) => replay(l, &stream),
                    _ => unreachable!("not a headline scheme"),
                };
                black_box(hits);
                span.count += stream.len() as u64;
                span.ns += ns;
            }
        }
        out
    }

    /// Generates each core's warm-up + measured accesses block by block
    /// and filters them through its private hierarchy. Returns the LLC
    /// stream interleaved round-robin by per-core access index (cores
    /// advancing in lockstep, where the driver orders by cycle count).
    fn filter_mix(&mut self, config: &SimConfig, mix: &Mix) -> Vec<LlcRequest> {
        let per_core = config.warmup_accesses + config.measure_accesses;
        let mut tagged: Vec<(u64, LlcRequest)> = Vec::new();
        for (i, w) in mix.workloads().iter().enumerate() {
            let core = CoreId::new(i as u8);
            let mut gen = TraceGen::new(&w.spec(), core, config.seed);
            let mut hierarchy = PrivateHierarchy::new(core, config.l1, config.l2);
            let blank = Access::new(core, Pc::new(0), Addr::new(0), AccessKind::Read);
            let mut buf = [blank; TRACE_BLOCK];
            let mut outs = [PrivateOutcome::L1Hit; TRACE_BLOCK];
            let mut issued = 0u64;
            while issued < per_core {
                let t = Instant::now();
                gen.fill_block(&mut buf);
                self.fill.ns += t.elapsed().as_nanos() as u64;
                self.fill.count += TRACE_BLOCK as u64;
                let t = Instant::now();
                for (a, out) in buf.iter().zip(outs.iter_mut()) {
                    *out = hierarchy.access(a.pc, a.addr.line(BLOCK_BITS), a.kind);
                }
                self.private.ns += t.elapsed().as_nanos() as u64;
                self.private.count += TRACE_BLOCK as u64;
                for (k, (a, out)) in buf.iter().zip(&outs).enumerate() {
                    if let PrivateOutcome::LlcAccess { writeback } = *out {
                        let at = issued + k as u64;
                        if let Some(wb) = writeback {
                            let req =
                                LlcRequest { core, pc: a.pc, line: wb, kind: AccessKind::Write };
                            tagged.push((at, req));
                        }
                        let line = a.addr.line(BLOCK_BITS);
                        tagged.push((at, LlcRequest { core, pc: a.pc, line, kind: a.kind }));
                    }
                }
                issued += TRACE_BLOCK as u64;
            }
        }
        // Stable: a write-back stays ahead of the demand access that caused it.
        tagged.sort_by_key(|&(at, r)| (at, r.core.index()));
        tagged.into_iter().map(|(_, r)| r).collect()
    }
}

/// Replays `stream` through `llc`; returns `(ns, hits)`.
fn replay<L: SharedLlc>(llc: &mut L, stream: &[LlcRequest]) -> (u64, u64) {
    let t = Instant::now();
    let mut hits = 0;
    for r in stream {
        hits += u64::from(llc.access(r.core, r.pc, r.line, r.kind).is_hit());
    }
    (t.elapsed().as_nanos() as u64, hits)
}

/// Counts NUcache selection epochs in a telemetry stream.
#[derive(Default)]
struct EpochCounter {
    epochs: u64,
}

impl EventSink for EpochCounter {
    fn record_event(&mut self, event: &Event) {
        if matches!(event, Event::SelectionEpoch { .. }) {
            self.epochs += 1;
        }
    }
}

/// NUcache through the three driver entry points: the monomorphized
/// `run_mix`, the `dyn SharedLlc` path `run_mix_on`, and
/// `run_mix_telemetry` with a bench-owned sink. All three must agree.
struct DriverPaths {
    mono_s: f64,
    dyn_s: f64,
    deli_hits: u64,
    llc_hits: u64,
    epochs: u64,
    results: Vec<SimResult>,
    checked: u64,
    mismatches: u64,
}

impl DriverPaths {
    fn run_mono(&mut self, config: &SimConfig, mix: &Mix, scheme: &Scheme) -> SimResult {
        let t = Instant::now();
        let result = run_mix(config, mix, scheme);
        self.mono_s += t.elapsed().as_secs_f64();
        result
    }

    /// `run_mix_on` over the same construction `Scheme::build` boxes,
    /// kept concrete so the DeliWays counters can be read after the run.
    /// Construction is timed, as it is inside `run_mix`.
    fn run_dyn(&mut self, config: &SimConfig, mix: &Mix, scheme: &Scheme) -> SimResult {
        let t = Instant::now();
        let BuiltLlc::NuCache(mut llc) =
            scheme.build_concrete(config.llc, config.num_cores, config.seed)
        else {
            unreachable!("nucache scheme builds a NuCache")
        };
        let result = run_mix_on(config, mix, &mut llc as &mut dyn SharedLlc);
        self.dyn_s += t.elapsed().as_secs_f64();
        self.deli_hits += NuCache::deli_hits(&llc);
        self.llc_hits += llc.stats().hits;
        result
    }

    fn measure(config: &SimConfig, mixes: &[Mix]) -> DriverPaths {
        let scheme = Scheme::nucache_default();
        let mut out = DriverPaths {
            mono_s: 0.0,
            dyn_s: 0.0,
            deli_hits: 0,
            llc_hits: 0,
            epochs: 0,
            results: Vec::new(),
            checked: 0,
            mismatches: 0,
        };
        for mix in mixes {
            // dyn, mono, mono, dyn: a drift in host speed over the four
            // runs cancels out of the ratio.
            let dynamic = out.run_dyn(config, mix, &scheme);
            let mono = out.run_mono(config, mix, &scheme);
            out.mismatches += u64::from(out.run_mono(config, mix, &scheme) != mono);
            out.mismatches += u64::from(out.run_dyn(config, mix, &scheme) != mono);
            out.mismatches += u64::from(dynamic != mono);

            let mut sink = EpochCounter::default();
            let telemetry = run_mix_telemetry(config, mix, &scheme, u64::MAX, &mut sink);
            out.epochs += sink.epochs;
            out.mismatches += u64::from(telemetry != mono);
            out.checked += 4;
            out.results.push(mono);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> Vec<SimConfig> {
        configs(seed, 2_000, 5_000)
    }

    #[test]
    fn a_seed_repeats_its_results_exactly() {
        let mixes = mixes();
        let all: Vec<usize> = (0..SUB_SEEDS as usize).collect();
        let a = pass(&tiny(7), &all, &mixes);
        let b = pass(&tiny(7), &all, &mixes);
        assert_eq!(a.failed, 0);
        assert_eq!(a.cells.len(), SUB_SEEDS as usize * MIX_NAMES.len() * 5);
        assert_eq!(a.digest(), b.digest());
        assert!(a.digest() < 1 << 52, "the digest must be exact as a JSON number");
        let gain = |p: &Pass| ws_gain_vs_lru(&p.cells.iter().collect::<Vec<_>>()).to_bits();
        assert_eq!(gain(&a), gain(&b));
    }

    #[test]
    fn traced_run_checks_out_and_reports_every_simulator_layer() {
        let o = traced_run(&tiny(7), &mixes());
        assert_eq!(o.failed, 0);
        for name in [
            "trace.fill_block_ns",
            "cache.private_ns",
            "cache.llc_lru_ns",
            "partition.llc_ucp_ns",
            "core.llc_nucache_ns",
            "sim.run_mix.nucache_s",
            "sim.solo_s",
            "sim.dyn_over_mono",
            "sim.result_digest",
        ] {
            assert!(o.get(name).is_some_and(|v| v > 0.0), "{name}");
        }
    }

    #[test]
    fn another_seed_gives_other_results() {
        let mixes = mixes();
        assert_ne!(pass(&tiny(7), &[0], &mixes).digest(), pass(&tiny(8), &[0], &mixes).digest());
    }

    #[test]
    fn a_broken_result_fails_its_check() {
        let mixes = mixes();
        let p = pass(&tiny(7), &[0], &mixes);
        let mut r = p.cells[0].result.clone();
        assert!(result_ok(&r, p.cells[0].weighted_speedup));
        r.per_core[1].ipc = f64::NAN;
        assert!(!result_ok(&r, p.cells[0].weighted_speedup));
    }
}
