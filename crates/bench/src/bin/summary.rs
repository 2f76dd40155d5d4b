//! `nucache-bench summary`: one machine-readable point on the perf
//! trajectory.
//!
//! Runs the two canonical throughput workloads and writes a JSON summary
//! (the `BENCH_<n>.json` schema, DESIGN.md §12):
//!
//! * **`fill_find_churn`** — the steady-state tag-array churn loop,
//!   via [`nucache_bench::fill_find_churn`], so substrate-level changes
//!   show up directly;
//! * **`quick_run_all`** — a fixed dual-core evaluation slice (headline
//!   suite × two mixes, serial, fixed run lengths independent of
//!   `NUCACHE_QUICK`), so end-to-end driver/trace changes show up in
//!   wall-clock.
//!
//! Usage:
//!
//! ```text
//! summary [--out PATH] [--label NAME] [--baseline PATH] \
//!         [--threaded PATH] [--check PATH [--max-regress FRAC]]
//! ```
//!
//! `--baseline` embeds a previous summary's measurements under
//! `"baseline"` (the before/after record each PR commits). `--threaded`
//! embeds a `loadgen` run's JSON (the threaded closed-loop sweep) under
//! `"threaded"`. `--check` compares this run against a committed
//! summary and exits non-zero if either workload's accesses/sec fell by
//! more than `--max-regress` (default 0.30) — the CI regression gate
//! (the `threaded` section is informational: wall-clock-sleep-bound
//! numbers regress with host scheduling, not with code).

#![expect(clippy::disallowed_types, reason = "a throughput benchmark times with Instant")]

use nucache_bench::fill_find_churn;
use nucache_cache::{CacheGeometry, SetArray};
use nucache_common::json::{parse, JsonValue};
use nucache_sim::telemetry::git_revision;
use nucache_sim::{run_mix, take_simulated_accesses, Scheme, SimConfig};
use nucache_trace::{Mix, SpecWorkload};
use std::process::ExitCode;
use std::time::Instant;

/// Churn iterations per timed repetition.
const CHURN_ITERS: u64 = 4_000_000;
/// Timed churn repetitions (best rate wins, to shed scheduler noise).
const CHURN_REPS: usize = 3;
/// Timed repetitions of the quick `run_all` slice (best wall-clock wins —
/// same noise-shedding rationale as [`CHURN_REPS`]).
const QUICK_REPS: usize = 3;
/// Fixed warm-up/measure lengths for the quick `run_all` slice. These
/// are deliberately independent of `NUCACHE_QUICK`: trajectory points
/// must measure the same workload on every host and every PR.
const QUICK_WARMUP: u64 = 25_000;
const QUICK_MEASURE: u64 = 100_000;

/// One measured workload: volume, wall-clock and rate.
struct Measurement {
    accesses: u64,
    seconds: f64,
    rate: f64,
}

impl Measurement {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("accesses", JsonValue::Num(self.accesses as f64)),
            ("seconds", JsonValue::Num(self.seconds)),
            ("accesses_per_sec", JsonValue::Num(self.rate)),
        ])
    }
}

fn measure_churn() -> Measurement {
    let geom = CacheGeometry::new(1024 * 1024, 16, 64);
    // Warm-up pass: page in the arrays and settle the clocks.
    let mut warm = SetArray::new(geom);
    std::hint::black_box(fill_find_churn(&mut warm, 200_000));
    let mut best = f64::MAX;
    for _ in 0..CHURN_REPS {
        let mut arr = SetArray::new(geom);
        let t = Instant::now();
        std::hint::black_box(fill_find_churn(&mut arr, CHURN_ITERS));
        best = best.min(t.elapsed().as_secs_f64());
    }
    Measurement { accesses: CHURN_ITERS, seconds: best, rate: CHURN_ITERS as f64 / best.max(1e-9) }
}

/// The fixed quick evaluation slice: headline suite × two dual-core
/// mixes, run serially so the number is a single-thread driver figure.
/// Repeated [`QUICK_REPS`] times; the best wall-clock wins.
fn measure_quick_run_all() -> Measurement {
    let config = SimConfig::baseline(2).with_run_lengths(QUICK_WARMUP, QUICK_MEASURE);
    let mixes = [
        Mix::new("sphinx_libq", vec![SpecWorkload::SphinxLike, SpecWorkload::LibquantumLike]),
        Mix::new("hmmer_bzip2", vec![SpecWorkload::HmmerLike, SpecWorkload::Bzip2Like]),
    ];
    let mut best = f64::MAX;
    let mut accesses = 0;
    for _ in 0..QUICK_REPS {
        take_simulated_accesses(); // discard anything counted before this rep
        let t = Instant::now();
        for scheme in Scheme::headline_suite() {
            for mix in &mixes {
                std::hint::black_box(run_mix(&config, mix, &scheme));
            }
        }
        best = best.min(t.elapsed().as_secs_f64());
        accesses = take_simulated_accesses();
    }
    Measurement { accesses, seconds: best, rate: accesses as f64 / best.max(1e-9) }
}

fn host_json() -> JsonValue {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    JsonValue::obj(vec![
        ("os", JsonValue::Str(std::env::consts::OS.to_string())),
        ("arch", JsonValue::Str(std::env::consts::ARCH.to_string())),
        ("cpus", JsonValue::Num(cpus as f64)),
    ])
}

/// Extracts `section.accesses_per_sec` from a parsed summary.
fn rate_of(doc: &JsonValue, section: &str) -> Option<f64> {
    doc.get(section)?.get("accesses_per_sec")?.as_f64()
}

fn run() -> Result<(), String> {
    let mut out_path = None;
    let mut label = "summary".to_string();
    let mut baseline_path = None;
    let mut threaded_path = None;
    let mut check_path = None;
    let mut max_regress = 0.30f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--out" => out_path = Some(value("--out")?),
            "--label" => label = value("--label")?,
            "--baseline" => baseline_path = Some(value("--baseline")?),
            "--threaded" => threaded_path = Some(value("--threaded")?),
            "--check" => check_path = Some(value("--check")?),
            "--max-regress" => {
                max_regress =
                    value("--max-regress")?.parse().map_err(|e| format!("--max-regress: {e}"))?
            }
            "--help" => {
                println!(
                    "summary [--out PATH] [--label NAME] [--baseline PATH] \
                     [--threaded PATH] [--check PATH [--max-regress FRAC]]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }

    eprintln!("[summary] fill_find_churn: {CHURN_ITERS} iterations x {CHURN_REPS}");
    let churn = measure_churn();
    eprintln!(
        "[summary] fill_find_churn: {:.0} accesses/sec ({:.3}s best of {CHURN_REPS})",
        churn.rate, churn.seconds
    );
    eprintln!("[summary] quick_run_all: headline suite x 2 mixes, serial, x {QUICK_REPS}");
    let run_all = measure_quick_run_all();
    eprintln!(
        "[summary] quick_run_all: {:.2}s wall-clock (best of {QUICK_REPS}), {:.0} accesses/sec",
        run_all.seconds, run_all.rate
    );

    let mut fields = vec![
        ("schema", JsonValue::Str("nucache-bench-summary/v1".to_string())),
        ("label", JsonValue::Str(label)),
        ("git_rev", git_revision().map_or(JsonValue::Null, JsonValue::Str)),
        ("host", host_json()),
        ("fill_find_churn", churn.to_json()),
        ("quick_run_all", run_all.to_json()),
    ];
    if let Some(path) = &threaded_path {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let doc = parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        fields.push(("threaded", doc));
    }
    if let Some(path) = &baseline_path {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let doc = parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        let section = |name: &str| doc.get(name).cloned().unwrap_or(JsonValue::Null);
        fields.push((
            "baseline",
            JsonValue::obj(vec![
                ("git_rev", section("git_rev")),
                ("fill_find_churn", section("fill_find_churn")),
                ("quick_run_all", section("quick_run_all")),
            ]),
        ));
    }
    let json = JsonValue::obj(fields).to_string_pretty();
    match &out_path {
        Some(path) => {
            std::fs::write(path, format!("{json}\n"))
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("[summary] wrote {path}");
        }
        None => println!("{json}"),
    }

    if let Some(path) = &check_path {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let doc = parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        let mut failures = Vec::new();
        for (name, measured) in [("fill_find_churn", churn.rate), ("quick_run_all", run_all.rate)] {
            let reference =
                rate_of(&doc, name).ok_or(format!("{path} has no {name}.accesses_per_sec"))?;
            let floor = reference * (1.0 - max_regress);
            if measured < floor {
                failures.push(format!(
                    "{name}: {measured:.0}/s is below the floor {floor:.0}/s \
                     ({reference:.0}/s committed, -{:.0}% allowed)",
                    max_regress * 100.0
                ));
            } else {
                eprintln!(
                    "[summary] check {name}: {measured:.0}/s vs committed {reference:.0}/s — ok"
                );
            }
        }
        if !failures.is_empty() {
            return Err(format!("throughput regression vs {path}: {}", failures.join("; ")));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("[summary] error: {e}");
            ExitCode::FAILURE
        }
    }
}
