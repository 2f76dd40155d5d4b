//! Runs every table and figure of the evaluation.
//!
//! Simulations inside each step fan out over a worker pool (`--jobs N`,
//! `NUCACHE_JOBS`, default: available parallelism); emitted CSVs are
//! identical at any worker count. Per-step wall time and simulation
//! throughput land in `bench_summary.json` next to the CSVs.
//!
//! A step that panics is reported and skipped — the remaining steps
//! still run, every failure lands in the manifest's `failures` section
//! and in `failures.json` next to the CSVs, and the process exits
//! non-zero naming every failed step. Within a step, the runner isolates
//! panicking jobs the same way (see `DESIGN.md` §11), so partial results
//! survive as far as each figure allows.
//! `--telemetry DIR` streams every simulation's events into DIR and
//! writes a single `manifest.json` covering the whole evaluation.
//! `--inject-faults SEED` deterministically injects worker panics and
//! I/O errors to exercise all of the above.

#![expect(
    clippy::disallowed_types,
    reason = "per-step timing for the console only; never reaches a simulation"
)]

use nucache_experiments::panic_message;
use nucache_sim::args::Args;
use nucache_sim::telemetry::{git_revision, take_manifest_config, Manifest};
use nucache_sim::{
    default_jobs, set_default_jobs, take_degradations, take_failures, take_simulated_accesses,
    FailureRecord, FaultPlan,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct StepStats {
    id: &'static str,
    seconds: f64,
    simulated_accesses: u64,
}

fn write_bench_summary(jobs: usize, total_seconds: f64, steps: &[StepStats]) {
    let path = nucache_experiments::out_dir().join("bench_summary.json");
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"jobs\": {jobs},\n"));
    json.push_str(&format!("  \"quick\": {},\n", nucache_experiments::quick_mode()));
    json.push_str(&format!("  \"total_seconds\": {total_seconds:.3},\n"));
    json.push_str("  \"steps\": [\n");
    for (i, s) in steps.iter().enumerate() {
        let rate = if s.seconds > 0.0 { s.simulated_accesses as f64 / s.seconds } else { 0.0 };
        json.push_str(&format!(
            "    {{\"id\": \"{}\", \"seconds\": {:.3}, \"simulated_accesses\": {}, \"accesses_per_sec\": {:.0}}}{}\n",
            s.id,
            s.seconds,
            s.simulated_accesses,
            rate,
            if i + 1 < steps.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let write = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&path, &json)
    };
    match write() {
        Ok(()) => eprintln!("[run_all] wrote {}", path.display()),
        Err(e) => eprintln!("[run_all] failed to write {}: {e}", path.display()),
    }
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(argv.iter().cloned()).map_err(|e| e.to_string())?;
    if args.flag("help") {
        println!(
            "options: --jobs N (worker threads; default: NUCACHE_JOBS or available parallelism) \
             --telemetry DIR --inject-faults SEED --help"
        );
        return Ok(());
    }
    let jobs: usize = args.get_num("jobs", 0).map_err(|e| e.to_string())?;
    let telemetry = args.get_or("telemetry", "").to_string();
    let inject = args.get_or("inject-faults", "").to_string();
    args.reject_unknown().map_err(|e| e.to_string())?;
    if jobs >= 1 {
        set_default_jobs(jobs);
    }
    if !inject.is_empty() {
        let seed: u64 =
            inject.parse().map_err(|_| format!("--inject-faults: bad seed '{inject}'"))?;
        nucache_sim::set_fault_plan(Some(FaultPlan::new(seed)));
        eprintln!("[run_all] injecting faults with plan seed {seed}");
    }
    let jobs = default_jobs();
    // Runners re-derive this policy themselves; surfacing it here makes
    // a watchdog flag in the log self-explanatory.
    let policy = nucache_sim::JobPolicy::from_env();
    let watchdog = match policy.watchdog_secs {
        Some(nucache_sim::runner::DEFAULT_WATCHDOG_SECS) => String::new(),
        Some(secs) => format!(", watchdog {secs}s"),
        None => ", watchdog off".to_string(),
    };
    let quick = match nucache_experiments::quick_divisor() {
        1 => String::new(),
        div => format!(", quick /{div}"),
    };
    eprintln!(
        "[run_all] using {jobs} worker thread{}, {} retr{}{watchdog}{quick}",
        if jobs == 1 { "" } else { "s" },
        policy.max_retries,
        if policy.max_retries == 1 { "y" } else { "ies" },
    );
    let telemetry_dir = (!telemetry.is_empty()).then(|| PathBuf::from(telemetry));
    if let Some(dir) = &telemetry_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        nucache_sim::set_default_telemetry_dir(Some(dir));
        let _ = take_manifest_config();
    }

    let t0 = Instant::now();
    let mut stats: Vec<StepStats> = Vec::new();
    let mut failed_steps: Vec<&'static str> = Vec::new();
    take_simulated_accesses(); // discard anything counted before the first step
    let _ = take_failures(); // clean registries for this run
    let _ = take_degradations();
    let mut step = |name: &'static str, f: &dyn Fn()| {
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(f));
        let seconds = t.elapsed().as_secs_f64();
        let simulated_accesses = take_simulated_accesses();
        match outcome {
            Ok(()) if simulated_accesses > 0 => eprintln!(
                "[run_all] {name} done in {seconds:.1}s ({:.0} accesses/sec)",
                simulated_accesses as f64 / seconds.max(1e-9)
            ),
            Ok(()) => eprintln!("[run_all] {name} done in {seconds:.1}s"),
            Err(payload) => {
                // The panic message itself already went to stderr via the
                // default hook; record the step and move on.
                eprintln!("[run_all] {name} FAILED after {seconds:.1}s");
                failed_steps.push(name);
                nucache_sim::note_failure(FailureRecord {
                    stage: name.to_string(),
                    job: None,
                    index: None,
                    attempts: 1,
                    message: panic_message(payload.as_ref()),
                });
            }
        }
        stats.push(StepStats { id: name, seconds, simulated_accesses });
    };
    use nucache_experiments::{figs, tables};
    step("table1", &tables::table1);
    step("table3", &tables::table3);
    step("table4", &tables::table4);
    step("table2", &tables::table2);
    step("fig1", &figs::fig1);
    step("fig2", &figs::fig2);
    step("fig3", &figs::fig3);
    step("fig4", &figs::fig4);
    step("fig5", &|| {
        figs::fig5();
    });
    step("fig6", &|| {
        figs::fig6();
    });
    step("fig7", &|| {
        figs::fig7();
    });
    step("fig8", &figs::fig8);
    step("fig9", &figs::fig9);
    step("fig10", &figs::fig10);
    step("fig11", &figs::fig11);
    step("fig12", &figs::fig12);
    let total = t0.elapsed().as_secs_f64();
    eprintln!("[run_all] total {total:.1}s");
    write_bench_summary(jobs, total, &stats);
    eprintln!("[run_all] results in {}", nucache_experiments::out_dir().display());
    let failures = take_failures();
    let notes = take_degradations();
    nucache_experiments::write_failures_json(&failures);
    let n_failures = failures.len();
    if let Some(dir) = &telemetry_dir {
        let manifest = Manifest {
            experiment: "run_all".to_string(),
            argv,
            git_revision: git_revision(),
            wall_seconds: total,
            jobs: jobs as u64,
            quick: nucache_experiments::quick_mode(),
            config: take_manifest_config(),
            streams: Vec::new(),
            failures,
            notes,
        };
        match nucache_sim::write_manifest(dir, &manifest) {
            Ok(path) => eprintln!("[run_all] telemetry in {} ({})", dir.display(), path.display()),
            Err(e) => eprintln!("[run_all] failed to write manifest in {}: {e}", dir.display()),
        }
    }
    if !failed_steps.is_empty() {
        return Err(format!(
            "{} step(s) failed ({} failure record(s)): {}",
            failed_steps.len(),
            n_failures,
            failed_steps.join(", ")
        ));
    }
    if n_failures > 0 {
        return Err(format!("{n_failures} failure record(s); see failures.json"));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("try --help");
            ExitCode::FAILURE
        }
    }
}
