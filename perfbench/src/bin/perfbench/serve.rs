//! `serve_tenants`: the sharded serving front-end, `ConcurrentNucache`,
//! at zero backend latency, so the cache itself is the cost. A
//! `sphinx_like` reuse tenant runs beside a `libquantum_like` streamer
//! that also removes keys, on two threads.
//!
//! Every client is a closed loop over keys generated before timing: it
//! sends its next request when the previous one returns, and a miss
//! `put`s the value at once. Values encode the key and a per-key write
//! version, so a hit that returns anything but the value last written
//! for its key (a stale value after a `remove` included) is a failed
//! request. Client 0 pumps deferred selection epochs between requests
//! at a fixed interval; that time is kept out of request latency. With
//! more than one client, the first to finish its requests stops the
//! others, so every timed request ran while all clients were running.

use crate::hist::Histogram;
use crate::report::{median, Outcome};
use crate::spans::{ns_between, Span};
use nucache_bench::loadgen::{ServeCache, ShardedLru};
use nucache_common::{mix64, Access, AccessKind, Addr, CoreId, Pc};
use nucache_kernel::concurrent::{ConcurrentConfig, ConcurrentNucache, ConcurrentStats};
use nucache_kernel::kernel::Lookup;
use nucache_kernel::{DelinquentTracker, InsertionClass, KernelConfig, NextUseMonitor};
use nucache_trace::{SpecWorkload, TraceGen, BLOCK_BITS, TRACE_BLOCK};
use std::collections::HashMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const SHARDS: usize = 16;
const SETS: usize = 256;
const WAYS: usize = 8;
const DELI_WAYS: usize = 4;
/// Per-shard accesses between selection epochs.
const EPOCH_LEN: u64 = 1024;
/// Client 0 pumps deferred epochs before every `PUMP_EVERY`-th request.
const PUMP_EVERY: usize = 256;
/// Every `REMOVE_EVERY`-th request of a removing client removes the key
/// it requested `REMOVE_LAG` requests earlier.
const REMOVE_EVERY: usize = 16;
const REMOVE_LAG: usize = 8;
/// Untimed requests per client that fill the cache before timing.
const WARM_OPS: usize = 100_000;
/// Timed requests per client in one pass.
const TENANT_OPS: usize = 500_000;
/// Warm-up requests are interleaved between clients in chunks this big.
const WARM_CHUNK: usize = 64;
/// Throughput is taken per segment of this many requests of one client;
/// the median segment drops the segments a host stall landed in.
const SEGMENT: usize = 16_384;
/// A client looks for the stop signal before every `STOP_CHECK_EVERY`-th
/// request.
const STOP_CHECK_EVERY: usize = 256;
/// Traced passes record at most this many monitor/tracker events.
const MAX_EVENTS: usize = 1 << 20;
/// Untraced passes time one request in this many. A clock read costs
/// about as much as a cache hit (see `bench.clock_ns`), so timing every
/// request would dilute `ops_per_s`. Coprime with `REMOVE_EVERY` and
/// `PUMP_EVERY`, so removes and post-pump requests are sampled too.
const SAMPLE_EVERY: usize = 7;

const REMOVE_BIT: u32 = 1 << 31;

fn shard_config() -> KernelConfig {
    KernelConfig::default()
        .with_sets(SETS)
        .with_ways(WAYS)
        .with_deli_ways(DELI_WAYS)
        .with_epoch_len(EPOCH_LEN)
}

fn new_cache() -> ConcurrentNucache<u64> {
    ConcurrentNucache::init(ConcurrentConfig::new(SHARDS, shard_config()))
        .expect("benchmark shard geometry is valid")
}

/// The value a correct cache returns for `key` at write `version`.
fn encode(key: u64, version: u32) -> u64 {
    mix64(key) ^ u64::from(version)
}

/// One client's requests, generated before timing.
struct Client {
    /// Distinct keys in order of first request; requests index into them.
    keys: Vec<u64>,
    classes: Vec<InsertionClass>,
    /// Key index per request, `REMOVE_BIT` set for a `remove`.
    warm: Vec<u32>,
    ops: Vec<u32>,
    pumps: bool,
}

impl Client {
    /// The key index and whether the request is a `remove`.
    #[inline]
    fn decode(op: u32) -> (usize, bool) {
        ((op & !REMOVE_BIT) as usize, op & REMOVE_BIT != 0)
    }
}

/// Requests of every client, from `seed`, plus the
/// `TraceGen::fill_block` span of generating them. The flag marks the
/// client that removes.
fn keygen(seed: u64) -> (Vec<Client>, Span) {
    let tenants = [(SpecWorkload::SphinxLike, false), (SpecWorkload::LibquantumLike, true)];
    let mut fill = Span::default();
    let clients = tenants
        .iter()
        .enumerate()
        .map(|(c, &(workload, removes))| {
            let core = CoreId::new(c as u8);
            let mut gen = TraceGen::new(&workload.spec(), core, seed);
            let mut buf =
                [Access::new(core, Pc::new(0), Addr::new(0), AccessKind::Read); TRACE_BLOCK];
            let total = WARM_OPS + TENANT_OPS;
            let mut index: HashMap<u64, u32> = HashMap::new();
            let (mut keys, mut classes, mut seq) =
                (Vec::new(), Vec::new(), Vec::with_capacity(total));
            while seq.len() < total {
                let t = Instant::now();
                gen.fill_block(&mut buf);
                fill.ns += t.elapsed().as_nanos() as u64;
                fill.count += TRACE_BLOCK as u64;
                for a in buf.iter().take(total - seq.len()) {
                    // Client id in the top bits keeps tenants' keys disjoint.
                    let key = a.addr.line(BLOCK_BITS).0 | ((c as u64) << 56);
                    let class = InsertionClass::new(a.pc.0);
                    let idx = *index.entry(key).or_insert_with(|| {
                        keys.push(key);
                        classes.push(class);
                        (keys.len() - 1) as u32
                    });
                    assert_eq!(classes[idx as usize], class, "a key is requested by one class");
                    let i = seq.len();
                    if removes && i >= REMOVE_LAG && i % REMOVE_EVERY == REMOVE_EVERY - 1 {
                        seq.push(REMOVE_BIT | (seq[i - REMOVE_LAG] & !REMOVE_BIT));
                    } else {
                        seq.push(idx);
                    }
                }
            }
            let ops = seq.split_off(WARM_OPS);
            Client { keys, classes, warm: seq, ops, pumps: c == 0 }
        })
        .collect();
    (clients, fill)
}

enum Got {
    Miss,
    Hit(u64),
    /// A hit from a cache whose API does not return the value.
    HitUnchecked,
}

/// A cache the closed-loop clients can drive.
trait Target: Sync {
    fn get(&self, key: u64, class: InsertionClass) -> Got;
    fn put(&self, key: u64, class: InsertionClass, value: u64);
    fn remove(&self, key: u64);
    fn pump(&self);
    fn poison_recoveries(&self) -> u64;
}

impl Target for ConcurrentNucache<u64> {
    #[inline]
    fn get(&self, key: u64, class: InsertionClass) -> Got {
        self.get_with(key, class, |v| *v).map_or(Got::Miss, Got::Hit)
    }
    #[inline]
    fn put(&self, key: u64, class: InsertionClass, value: u64) {
        ConcurrentNucache::put(self, key, class, value);
    }
    #[inline]
    fn remove(&self, key: u64) {
        ConcurrentNucache::remove(self, key);
    }
    fn pump(&self) {
        self.pump_epochs();
    }
    fn poison_recoveries(&self) -> u64 {
        ConcurrentNucache::poison_recoveries(self)
    }
}

/// The striped-LRU reference: same shard count, routing and geometry.
/// It has no `remove`, so removes are skipped in its replay.
impl Target for ShardedLru {
    #[inline]
    fn get(&self, key: u64, class: InsertionClass) -> Got {
        if self.fetch(key, class) {
            Got::HitUnchecked
        } else {
            Got::Miss
        }
    }
    #[inline]
    fn put(&self, key: u64, class: InsertionClass, value: u64) {
        self.insert(key, class, value);
    }
    fn remove(&self, _key: u64) {}
    fn pump(&self) {}
    fn poison_recoveries(&self) -> u64 {
        ServeCache::poison_recoveries(self)
    }
}

/// One client's tallies for one phase of a pass.
#[derive(Default)]
struct Tally {
    requests: u64,
    gets: u64,
    hits: u64,
    failed: u64,
    latency: Histogram,
    /// Sum over clients of each client's median request rate over its
    /// complete `SEGMENT`-request segments.
    segment_rate: f64,
}

impl Tally {
    /// Adds the median rate of a client's segments bounded by `marks`.
    fn close_segments(&mut self, marks: &[Instant]) {
        if marks.len() > 1 {
            let rates: Vec<f64> = marks
                .windows(2)
                .map(|w| SEGMENT as f64 / w[1].duration_since(w[0]).as_secs_f64())
                .collect();
            self.segment_rate += median(&rates);
        }
    }

    fn merge(&mut self, o: &Tally) {
        self.requests += o.requests;
        self.gets += o.gets;
        self.hits += o.hits;
        self.failed += o.failed;
        self.latency.merge(&o.latency);
        self.segment_rate += o.segment_rate;
    }
}

/// Runs `ops` of `client` as a closed loop, timing one request in
/// `SAMPLE_EVERY`, until they are done or `stop` is set.
fn drive<T: Target>(
    cache: &T,
    client: &Client,
    ops: &[u32],
    versions: &mut [u32],
    tally: &mut Tally,
    stop: &AtomicBool,
) {
    let mut marks = Vec::with_capacity(ops.len() / SEGMENT + 1);
    marks.push(Instant::now());
    for (i, &op) in ops.iter().enumerate() {
        if i % SEGMENT == 0 && i > 0 {
            marks.push(Instant::now());
        }
        if i % STOP_CHECK_EVERY == 0 && stop.load(Ordering::SeqCst) {
            break;
        }
        if client.pumps && i % PUMP_EVERY == 0 {
            cache.pump();
        }
        let (idx, removes) = Client::decode(op);
        let key = client.keys[idx];
        let class = client.classes[idx];
        let t = (i % SAMPLE_EVERY == 0).then(Instant::now);
        let got = if removes {
            cache.remove(key);
            None
        } else {
            let got = cache.get(key, class);
            if let Got::Miss = got {
                versions[idx] += 1;
                cache.put(key, class, encode(key, versions[idx]));
            }
            Some(got)
        };
        if let Some(t) = t {
            tally.latency.record(t.elapsed().as_nanos() as u64);
        }
        tally.requests += 1;
        match got {
            None => versions[idx] += 1,
            Some(Got::Miss) => tally.gets += 1,
            Some(Got::Hit(v)) => {
                tally.gets += 1;
                tally.hits += 1;
                tally.failed += u64::from(v != encode(key, versions[idx]));
            }
            Some(Got::HitUnchecked) => {
                tally.gets += 1;
                tally.hits += 1;
            }
        }
    }
    tally.close_segments(&marks);
}

/// Runs `f`, counting a panic as one failed request.
fn guarded(tally: &mut Tally, f: impl FnOnce(&mut Tally)) {
    if catch_unwind(AssertUnwindSafe(|| f(tally))).is_err() {
        tally.failed += 1;
    }
}

/// Fills a fresh cache with every client's warm-up requests,
/// interleaved in fixed chunks. Returns the per-client key versions.
fn warm_up<T: Target>(cache: &T, clients: &[Client], tally: &mut Tally) -> Vec<Vec<u32>> {
    let mut versions: Vec<Vec<u32>> = clients.iter().map(|c| vec![0; c.keys.len()]).collect();
    let never = AtomicBool::new(false);
    for chunk in 0..WARM_OPS.div_ceil(WARM_CHUNK) {
        let range = chunk * WARM_CHUNK..((chunk + 1) * WARM_CHUNK).min(WARM_OPS);
        for (client, v) in clients.iter().zip(versions.iter_mut()) {
            guarded(tally, |t| drive(cache, client, &client.warm[range.clone()], v, t, &never));
        }
    }
    versions
}

/// Runs `run` for every client at once, one thread per client (the
/// first on the calling thread), released together by a barrier. The
/// first client to return sets the stop signal `run` is given, so the
/// others end their loops too.
fn concurrently<R: Send>(
    clients: &[Client],
    versions: &mut [Vec<u32>],
    run: impl Fn(&Client, &mut Vec<u32>, &AtomicBool) -> R + Sync,
) -> Vec<R> {
    let barrier = Barrier::new(clients.len());
    let stop = AtomicBool::new(false);
    let run = |client: &Client, v: &mut Vec<u32>| {
        barrier.wait();
        let r = run(client, v, &stop);
        stop.store(true, Ordering::SeqCst);
        r
    };
    let (first, rest) = versions.split_first_mut().expect("at least one client");
    std::thread::scope(|s| {
        let others: Vec<_> = clients[1..]
            .iter()
            .zip(rest.iter_mut())
            .map(|(client, v)| s.spawn(|| run(client, v)))
            .collect();
        let mut out = vec![run(&clients[0], first)];
        out.extend(others.into_iter().map(|h| h.join().expect("client panics are caught inside")));
        out
    })
}

/// One pass against a fresh cache built by `make`.
struct Pass {
    setup_s: f64,
    timed: Tally,
    attempted: u64,
    failed: u64,
}

impl Pass {
    /// Requests per second summed over clients: each client's median
    /// over its complete segments, all of which ran while every client
    /// was running.
    fn ops_per_s(&self) -> f64 {
        self.timed.segment_rate
    }

    fn hit_ratio(&self) -> f64 {
        self.timed.hits as f64 / self.timed.gets.max(1) as f64
    }
}

fn pass<T: Target>(make: impl Fn() -> T, clients: &[Client]) -> Pass {
    let t = Instant::now();
    let cache = make();
    let mut warm = Tally::default();
    let mut versions = warm_up(&cache, clients, &mut warm);
    let setup_s = t.elapsed().as_secs_f64();
    let mut timed = Tally::default();
    for tally in concurrently(clients, &mut versions, |client, v, stop| {
        let mut tally = Tally::default();
        guarded(&mut tally, |t| drive(&cache, client, &client.ops, v, t, stop));
        tally
    }) {
        timed.merge(&tally);
    }
    let attempted = warm.requests + timed.requests;
    let failed = warm.failed + timed.failed + cache.poison_recoveries();
    Pass { setup_s, timed, attempted, failed }
}

/// Runs rounds until `budget` is spent (at least one). A round is one
/// untraced pass; traced, it adds a traced pass and a striped-LRU pass
/// on the same keys. Each metric is the median over rounds.
pub fn run(seed: u64, budget: Duration, traced: bool) -> Outcome {
    let t = Instant::now();
    let (clients, fill) = keygen(seed);
    let keygen_s = t.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut o = Outcome::default();
    let mut rounds: Vec<Vec<(&'static str, f64)>> = Vec::new();
    loop {
        let round = Instant::now();
        let p = pass(new_cache, &clients);
        o.attempted += p.attempted;
        o.failed += p.failed;
        let latency = &p.timed.latency;
        let m = if traced {
            let tr = traced_pass(&clients);
            o.attempted += tr.attempted;
            o.failed += tr.failed;
            let lru = pass(|| ShardedLru::new(SHARDS, SETS, WAYS), &clients);
            let mut m = vec![
                ("serve.p999_ns", latency.quantile(0.999)),
                ("serve.max_ns", latency.max() as f64),
                ("bench.trace_overhead_frac", 1.0 - tr.ops_per_s / p.ops_per_s()),
                ("ref.lru_ops_per_s", lru.ops_per_s()),
                ("ref.lru_hit_ratio", lru.hit_ratio()),
                ("ref.nucache_over_lru_ops", p.ops_per_s() / lru.ops_per_s()),
                ("ref.nucache_minus_lru_hit", p.hit_ratio() - lru.hit_ratio()),
            ];
            m.extend(tr.metrics);
            m
        } else {
            vec![
                ("setup_s", p.setup_s),
                ("ops_per_s", p.ops_per_s()),
                ("p50_ns", latency.quantile(0.5)),
                ("p99_ns", latency.quantile(0.99)),
                ("quality_ratio", p.hit_ratio()),
            ]
        };
        rounds.push(m);
        if start.elapsed() + round.elapsed() > budget {
            break;
        }
    }
    for (i, &(name, _)) in rounds[0].iter().enumerate() {
        o.set(name, median(&rounds.iter().map(|r| r[i].1).collect::<Vec<_>>()));
    }
    if traced {
        o.set("bench.keygen_s", keygen_s);
        o.set("trace.fill_block_ns", fill.mean_ns());
    }
    println!(
        "serve_tenants rounds={} keys={:?} timed_requests_per_pass={}",
        rounds.len(),
        clients.iter().map(|c| c.keys.len()).collect::<Vec<_>>(),
        clients.iter().map(|c| c.ops.len()).sum::<usize>()
    );
    o
}

/// Spans of one traced client, merged over clients after the pass.
#[derive(Default)]
struct ServeSpans {
    route: Span,
    lock_wait: Span,
    lock_hold: Span,
    get_hit: Span,
    get_miss: Span,
    put: Span,
    remove: Span,
    take: Span,
    compute: Span,
    install: Span,
    candidates: u64,
}

impl ServeSpans {
    fn merge(&mut self, o: &ServeSpans) {
        for (a, b) in [
            (&mut self.route, o.route),
            (&mut self.lock_wait, o.lock_wait),
            (&mut self.lock_hold, o.lock_hold),
            (&mut self.get_hit, o.get_hit),
            (&mut self.get_miss, o.get_miss),
            (&mut self.put, o.put),
            (&mut self.remove, o.remove),
            (&mut self.take, o.take),
            (&mut self.compute, o.compute),
            (&mut self.install, o.install),
        ] {
            a.merge(b);
        }
        self.candidates += o.candidates;
    }
}

/// What the kernel's Next-Use monitor and delinquency tracker are fed,
/// as seen from outside: every access, every miss, and every entry a
/// `put` or promotion pushed out of the cache.
#[derive(Clone, Copy)]
enum Observed {
    Access(u64),
    Miss(u64, InsertionClass),
    Evicted(u64, InsertionClass),
}

/// Calls into the shard's kernel under `with_shard`, recording the
/// route, lock-wait, lock-hold and kernel spans around it.
#[inline]
fn in_shard<R>(
    cache: &ConcurrentNucache<u64>,
    key: u64,
    spans: &mut ServeSpans,
    f: impl FnOnce(&mut nucache_kernel::NucacheKernel<u64>) -> R,
) -> (R, u64) {
    let t0 = Instant::now();
    let shard = cache.shard_of(key);
    let t1 = Instant::now();
    let (r, t2, t3) = cache.with_shard(shard, |k| {
        let t2 = Instant::now();
        let r = f(k);
        (r, t2, Instant::now())
    });
    let t4 = Instant::now();
    spans.route.add(ns_between(t0, t1));
    spans.lock_wait.add(ns_between(t1, t2));
    spans.lock_hold.add(ns_between(t2, t4));
    (r, ns_between(t2, t3))
}

/// The three public steps of `pump_epochs`, each timed.
fn traced_pump(cache: &ConcurrentNucache<u64>, spans: &mut ServeSpans) {
    for i in 0..cache.shard_count() {
        let t = Instant::now();
        let Some(inputs) = cache.with_shard(i, |k| k.take_epoch_inputs()) else { continue };
        spans.take.close(t);
        spans.candidates += inputs.candidates().len() as u64;
        let t = Instant::now();
        let selection = inputs.compute();
        spans.compute.close(t);
        let t = Instant::now();
        cache.with_shard(i, |k| k.install_selection(inputs, selection));
        spans.install.close(t);
    }
}

fn drive_traced(
    cache: &ConcurrentNucache<u64>,
    client: &Client,
    versions: &mut [u32],
    spans: &mut ServeSpans,
    tally: &mut Tally,
    events: &mut Vec<Observed>,
    stop: &AtomicBool,
) {
    let record = |e: Observed, events: &mut Vec<Observed>| {
        if events.len() < MAX_EVENTS {
            events.push(e);
        }
    };
    let mut marks = Vec::with_capacity(client.ops.len() / SEGMENT + 1);
    marks.push(Instant::now());
    for (i, &op) in client.ops.iter().enumerate() {
        if i % SEGMENT == 0 && i > 0 {
            marks.push(Instant::now());
        }
        if i % STOP_CHECK_EVERY == 0 && stop.load(Ordering::SeqCst) {
            break;
        }
        if client.pumps && i % PUMP_EVERY == 0 {
            traced_pump(cache, spans);
        }
        let (idx, removes) = Client::decode(op);
        let key = client.keys[idx];
        let class = client.classes[idx];
        tally.requests += 1;
        record(Observed::Access(key), events);
        if removes {
            let (_, ns) = in_shard(cache, key, spans, |k| k.remove(key));
            spans.remove.add(ns);
            versions[idx] += 1;
            continue;
        }
        tally.gets += 1;
        let ((value, promoted), ns) = in_shard(cache, key, spans, |k| match k.get(key, class) {
            Lookup::Hit { value, evicted, .. } => (Some(*value), evicted),
            Lookup::Miss => (None, None),
        });
        if let Some(e) = promoted {
            record(Observed::Evicted(e.key, e.class), events);
        }
        if let Some(v) = value {
            spans.get_hit.add(ns);
            tally.hits += 1;
            tally.failed += u64::from(v != encode(key, versions[idx]));
            continue;
        }
        spans.get_miss.add(ns);
        record(Observed::Miss(key, class), events);
        versions[idx] += 1;
        let value = encode(key, versions[idx]);
        let (evicted, ns) = in_shard(cache, key, spans, |k| k.put(key, class, value));
        spans.put.add(ns);
        if let Some(e) = evicted {
            record(Observed::Evicted(e.key, e.class), events);
        }
    }
    tally.close_segments(&marks);
}

struct TracedPass {
    ops_per_s: f64,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

/// The same pass with spans around every call into `concurrent` and
/// `kernel`, then standalone replays of the monitor and tracker.
fn traced_pass(clients: &[Client]) -> TracedPass {
    let cache = new_cache();
    let mut warm = Tally::default();
    let mut versions = warm_up(&cache, clients, &mut warm);
    let before = cache.stats();
    let (mut spans, mut tally, mut events) = (ServeSpans::default(), Tally::default(), Vec::new());
    for (s, t, e) in concurrently(clients, &mut versions, |client, v, stop| {
        let (mut spans, mut tally, mut events) =
            (ServeSpans::default(), Tally::default(), Vec::new());
        guarded(&mut tally, |t| drive_traced(&cache, client, v, &mut spans, t, &mut events, stop));
        (spans, tally, events)
    }) {
        spans.merge(&s);
        tally.merge(&t);
        events.extend(e);
    }
    let mut stats_span = Span::default();
    let mut after = ConcurrentStats::default();
    for _ in 0..64 {
        let t = Instant::now();
        after = black_box(cache.stats());
        stats_span.close(t);
    }
    let hits = after.hits - before.hits;
    let epochs = after.epochs - before.epochs;
    let (monitor_ns, tracker_ns) = replay_observers(&events);
    let metrics = vec![
        ("concurrent.route_ns", spans.route.mean_ns()),
        ("concurrent.lock_wait_ns", spans.lock_wait.mean_ns()),
        ("concurrent.lock_hold_ns", spans.lock_hold.mean_ns()),
        ("concurrent.stats_ns", stats_span.mean_ns()),
        ("kernel.get_hit_ns", spans.get_hit.mean_ns()),
        ("kernel.get_miss_ns", spans.get_miss.mean_ns()),
        ("kernel.put_ns", spans.put.mean_ns()),
        ("kernel.remove_ns", spans.remove.mean_ns()),
        ("kernel.deli_hit_share", (after.deli_hits - before.deli_hits) as f64 / hits.max(1) as f64),
        (
            "kernel.deli_fills_per_op",
            (after.deli_fills - before.deli_fills) as f64 / tally.requests.max(1) as f64,
        ),
        ("kernel.epochs", epochs as f64),
        ("kernel.epoch_candidates", spans.candidates as f64 / spans.take.count.max(1) as f64),
        ("kernel.epoch_take_ns", spans.take.mean_ns()),
        ("kernel.epoch_compute_ns", spans.compute.mean_ns()),
        ("kernel.epoch_install_ns", spans.install.mean_ns()),
        ("kernel.monitor_ns", monitor_ns),
        ("kernel.tracker_ns", tracker_ns),
    ];
    TracedPass {
        ops_per_s: tally.segment_rate,
        attempted: warm.requests + tally.requests,
        failed: warm.failed + tally.failed + cache.poison_recoveries(),
        metrics,
    }
}

/// Replays the observed stream through a standalone `NextUseMonitor`
/// (every event) and `DelinquentTracker` (misses), built like one
/// shard's. Returns mean ns per monitor event and per tracked miss.
fn replay_observers(events: &[Observed]) -> (f64, f64) {
    let cfg = shard_config();
    let set_bits = cfg.sets.trailing_zeros();
    let mut monitor: NextUseMonitor<InsertionClass> = NextUseMonitor::new(
        set_bits,
        cfg.monitor_shift.min(set_bits),
        cfg.monitor_depth,
        cfg.histogram_buckets,
    );
    let t = Instant::now();
    for &e in events {
        match e {
            Observed::Access(key) => monitor.on_set_access(key),
            Observed::Miss(key, _) => {
                black_box(monitor.on_next_use(key));
            }
            Observed::Evicted(key, class) => monitor.on_evict(key, class),
        }
    }
    let monitor_ns = t.elapsed().as_nanos() as f64 / events.len().max(1) as f64;
    let mut tracker: DelinquentTracker<InsertionClass> =
        DelinquentTracker::new(256.max(cfg.max_candidates));
    let misses: Vec<InsertionClass> = events
        .iter()
        .filter_map(|e| if let Observed::Miss(_, c) = e { Some(*c) } else { None })
        .collect();
    let t = Instant::now();
    for &class in &misses {
        tracker.record_miss(class);
    }
    let tracker_ns =
        if misses.is_empty() { 0.0 } else { t.elapsed().as_nanos() as f64 / misses.len() as f64 };
    black_box(tracker.total_misses());
    (monitor_ns, tracker_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_gives_the_same_keys_and_another_seed_other_keys() {
        let (a, _) = keygen(5);
        let (b, _) = keygen(5);
        let (c, _) = keygen(6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((&x.keys, &x.warm, &x.ops), (&y.keys, &y.warm, &y.ops));
        }
        assert!(a.iter().zip(&c).all(|(x, y)| x.ops != y.ops));
        let removes = a[1].ops.iter().filter(|&&op| Client::decode(op).1).count();
        assert_eq!(removes, TENANT_OPS / REMOVE_EVERY, "the streaming tenant removes");
    }

    #[test]
    fn the_first_client_to_finish_stops_the_others() {
        let (clients, _) = keygen(5);
        let mut versions = vec![Vec::new(); clients.len()];
        let ran = concurrently(&clients, &mut versions, |client, _, stop| {
            // Client 0 returns at once; client 1 only ends when stopped.
            while !client.pumps && !stop.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            client.pumps
        });
        assert_eq!(ran, [true, false]);
    }

    /// One client alone is deterministic; two interleave freely.
    #[test]
    fn one_client_hit_and_miss_counts_repeat_for_a_seed() {
        let (clients, _) = keygen(3);
        let a = pass(new_cache, &clients[..1]);
        let b = pass(new_cache, &clients[..1]);
        assert_eq!(a.failed, 0);
        assert_eq!((a.timed.hits, a.timed.gets), (b.timed.hits, b.timed.gets));
        assert!(a.timed.hits > 0 && a.timed.hits < a.timed.gets);
    }

    #[test]
    fn corrupted_values_are_counted_as_failures() {
        let (clients, _) = keygen(3);
        let cache = new_cache();
        let mut tally = Tally::default();
        let mut versions = warm_up(&cache, &clients, &mut tally);
        assert_eq!(tally.failed, 0);
        let c = &clients[0];
        for ((&key, &class), &version) in c.keys.iter().zip(&c.classes).zip(&versions[0]).take(16) {
            cache.put(key, class, encode(key, version) ^ 1);
        }
        drive(&cache, c, &c.ops, &mut versions[0], &mut tally, &AtomicBool::new(false));
        assert!(tally.failed > 0, "stale or corrupted values must be caught");
        let mut o =
            Outcome { attempted: tally.requests, failed: tally.failed, ..Outcome::default() };
        assert!(o.error_frac() > 0.0);
        for &(name, _) in crate::report::END_TO_END {
            o.set(name, 1.0);
        }
        assert_eq!(o.to_json(false).get("correct").and_then(|c| c.as_bool()), Some(false));
    }

    #[test]
    fn traced_tenants_run_drives_every_serving_layer() {
        let o = run(3, Duration::ZERO, true);
        assert_eq!(o.failed, 0);
        for name in [
            "concurrent.route_ns",
            "concurrent.lock_wait_ns",
            "kernel.get_hit_ns",
            "kernel.get_miss_ns",
            "kernel.put_ns",
            "kernel.remove_ns",
            "kernel.epoch_compute_ns",
            "kernel.monitor_ns",
            "kernel.tracker_ns",
            "ref.lru_hit_ratio",
        ] {
            assert!(o.get(name).is_some_and(|v| v > 0.0), "{name}");
        }
    }
}
