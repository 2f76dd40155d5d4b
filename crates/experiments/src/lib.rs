//! Shared infrastructure for the experiment binaries.
//!
//! Every table and figure of the evaluation (see `DESIGN.md` §4) is
//! regenerated by a binary in `src/bin/`; the binaries are thin wrappers
//! over the functions in [`figs`] and [`tables`], so `run_all` can drive
//! the full evaluation in-process. Output goes to stdout as aligned
//! tables and to `target/experiments/*.csv` as CSV.
//!
//! Every binary accepts `--jobs N` (worker threads), `--telemetry DIR`
//! (JSONL event streams plus a `manifest.json`, see `DESIGN.md`
//! §observability) and `--inject-faults SEED` (deterministic fault
//! injection, see `DESIGN.md` §11) via [`cli_run`]; `report` renders a
//! telemetry directory back into human-readable epoch timelines.
//!
//! A panicking experiment no longer tears the process down mid-write:
//! [`cli_run`] catches it, records a [`FailureRecord`], still writes the
//! manifest (with its `failures` section) and `failures.json`, and exits
//! non-zero.
//!
//! Set `NUCACHE_QUICK=1` to shrink run lengths ~4x for smoke runs, or
//! `NUCACHE_QUICK=N` (N > 1) to divide them by N.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![expect(
    clippy::disallowed_types,
    reason = "step timing feeds the run manifest and console banner only"
)]
#![expect(clippy::cast_possible_truncation, reason = "tool crate: run lengths fit usize")]

pub mod characterize;
pub mod figs;
pub mod report;
pub mod tables;

use nucache_common::json::JsonValue;
use nucache_common::table::Table;
use nucache_sim::args::Args;
use nucache_sim::telemetry::{git_revision, take_manifest_config, Manifest};
use nucache_sim::{take_degradations, take_failures, FailureRecord, FaultPlan};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;

/// Directory experiment CSVs are written to.
pub fn out_dir() -> PathBuf {
    std::env::var_os("NUCACHE_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/experiments"))
}

/// Run-length divisor from `NUCACHE_QUICK`: unset, empty or
/// unparsable → 1 (full runs); `1` → 4 (the classic quick mode);
/// any larger N divides run lengths by N (for CI smoke runs).
pub fn quick_divisor() -> u64 {
    match std::env::var("NUCACHE_QUICK") {
        Ok(v) => match v.trim().parse::<u64>() {
            Ok(1) => 4,
            Ok(n) if n > 1 => n,
            _ => 1,
        },
        Err(_) => 1,
    }
}

/// Whether quick mode (shorter runs) is active.
pub fn quick_mode() -> bool {
    quick_divisor() > 1
}

/// Per-core (warmup, measure) access counts, honouring quick mode.
pub fn run_lengths() -> (u64, u64) {
    use nucache_sim::config::{BASELINE_MEASURE_ACCESSES, BASELINE_WARMUP_ACCESSES};
    let div = quick_divisor();
    ((BASELINE_WARMUP_ACCESSES / div).max(1), (BASELINE_MEASURE_ACCESSES / div).max(1))
}

/// Renders a `catch_unwind` payload as a message string.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with non-string payload".to_string())
}

/// Writes `failures.json` into [`out_dir`] when there are failures (and
/// removes a stale one when there are none), so a failed run leaves a
/// machine-readable account next to its partial CSVs even without
/// telemetry enabled.
pub fn write_failures_json(failures: &[FailureRecord]) {
    let path = out_dir().join("failures.json");
    if failures.is_empty() {
        let _ = std::fs::remove_file(&path);
        return;
    }
    let json = JsonValue::Arr(failures.iter().map(FailureRecord::to_json).collect());
    let write = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&path, json.to_string_pretty())
    };
    match write() {
        Ok(()) => eprintln!("[failures] wrote {}", path.display()),
        Err(e) => eprintln!("[failures] failed to write {}: {e}", path.display()),
    }
}

/// Prints a titled table and writes its CSV next to the other results.
/// A CSV that cannot be written degrades (warning + manifest note)
/// rather than failing the step — the table already went to stdout.
pub fn emit(id: &str, title: &str, table: &Table) {
    println!("\n=== {id}: {title} ===");
    print!("{}", table.to_text());
    let path = out_dir().join(format!("{id}.csv"));
    match table.write_csv(&path) {
        Ok(()) => println!("[csv] {}", path.display()),
        Err(e) => nucache_sim::note_degradation(format!(
            "failed to write {}: {e}; table printed to stdout only",
            path.display()
        )),
    }
}

/// Standard command-line front-end for the figure/table binaries: parses
/// `--jobs N`, `--telemetry DIR` and `--help`, installs the process-wide
/// overrides, runs `f`, and — when telemetry is on — writes the run's
/// `manifest.json` (configuration, git revision, wall time, streams)
/// next to the JSONL streams.
///
/// Returns the process exit code, so thin binaries are one line:
///
/// ```no_run
/// fn main() -> std::process::ExitCode {
///     nucache_experiments::cli_run("fig5_dual_core", || {
///         nucache_experiments::figs::fig5();
///     })
/// }
/// ```
pub fn cli_run(name: &str, f: impl FnOnce()) -> ExitCode {
    match cli_main(name, f) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("try --help");
            ExitCode::FAILURE
        }
    }
}

fn cli_main(name: &str, f: impl FnOnce()) -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(argv.iter().cloned()).map_err(|e| e.to_string())?;
    if args.flag("help") {
        println!("usage: {name} [--jobs N] [--telemetry DIR] [--inject-faults SEED]");
        println!("  --jobs N              worker threads (default: NUCACHE_JOBS or all cores)");
        println!("  --telemetry DIR       write JSONL event streams and manifest.json into DIR");
        println!("  --inject-faults SEED  deterministically inject worker panics and I/O errors");
        return Ok(());
    }
    let jobs: usize = args.get_num("jobs", 0).map_err(|e| e.to_string())?;
    let telemetry = args.get_or("telemetry", "").to_string();
    let inject = args.get_or("inject-faults", "").to_string();
    args.reject_unknown().map_err(|e| e.to_string())?;
    if jobs >= 1 {
        nucache_sim::set_default_jobs(jobs);
    }
    if !inject.is_empty() {
        let seed: u64 =
            inject.parse().map_err(|_| format!("--inject-faults: bad seed '{inject}'"))?;
        nucache_sim::set_fault_plan(Some(FaultPlan::new(seed)));
        eprintln!("[faults] injecting faults with plan seed {seed}");
    }
    let telemetry_dir = (!telemetry.is_empty()).then(|| PathBuf::from(telemetry));
    if let Some(dir) = &telemetry_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        nucache_sim::set_default_telemetry_dir(Some(dir));
        let _ = take_manifest_config(); // start the experiment with a clean slot
    }
    let _ = take_failures(); // clean registries for this run
    let _ = take_degradations();

    // Elapsed time feeds the run manifest and console banner only.
    let t0 = std::time::Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(f));
    if let Err(payload) = &outcome {
        nucache_sim::note_failure(FailureRecord {
            stage: name.to_string(),
            job: None,
            index: None,
            attempts: 1,
            message: panic_message(payload.as_ref()),
        });
    }

    let failures = take_failures();
    let notes = take_degradations();
    write_failures_json(&failures);
    let n_failures = failures.len();
    if let Some(dir) = &telemetry_dir {
        let manifest = Manifest {
            experiment: name.to_string(),
            argv,
            git_revision: git_revision(),
            wall_seconds: t0.elapsed().as_secs_f64(),
            jobs: nucache_sim::default_jobs() as u64,
            quick: quick_mode(),
            config: take_manifest_config(),
            streams: Vec::new(),
            failures,
            notes,
        };
        let path = nucache_sim::write_manifest(dir, &manifest)
            .map_err(|e| format!("writing manifest in {}: {e}", dir.display()))?;
        println!("[telemetry] wrote {}", path.display());
    }
    if outcome.is_err() || n_failures > 0 {
        return Err(format!("{name} recorded {} failure(s)", n_failures.max(1)));
    }
    Ok(())
}

/// Geometric mean helper re-exported for binaries.
pub use nucache_common::stats::geomean;
