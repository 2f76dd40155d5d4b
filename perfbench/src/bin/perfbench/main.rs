//! The repository benchmark: one process per workload run.
//!
//! ```text
//! perfbench --workload <sim_quad|serve_tenants> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded;
//! `--trace 1` runs the same workload and seed with spans around the
//! calls into each layer and prints the per-layer metrics. The last line
//! of standard output is the JSON result; the process exits non-zero
//! when any output check failed. Workloads, metrics and the layer each
//! metric belongs to are described in `catalog.json`.

#![forbid(unsafe_code)]

mod calib;
mod hist;
mod report;
mod serve;
mod simquad;
mod spans;

use report::Outcome;
use std::process::ExitCode;
use std::time::Duration;

pub const WORKLOADS: [&str; 2] = ["sim_quad", "serve_tenants"];

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => traced = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        traced: traced.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let mut outcome: Outcome = match args.workload.as_str() {
        "sim_quad" => simquad::run(args.seed, budget, args.traced),
        _ => serve::run(args.seed, budget, args.traced),
    };
    if !args.traced {
        outcome.set("peak_rss_mb", report::peak_rss_mb());
    }
    // Calibration runs after the workload so its buffer stays out of the
    // peak resident set.
    let (alu_ns, chase_ns) = calib::calibrate();
    println!("calibration alu_ns={alu_ns:.4} chase_ns={chase_ns:.4}");
    if args.traced {
        outcome.set("calib.alu_ns", alu_ns);
        outcome.set("calib.chase_ns", chase_ns);
        outcome.set("bench.clock_ns", calib::clock_ns());
        outcome.set("bench.error_frac", outcome.error_frac());
    }
    let json = outcome.to_json(args.traced);
    let correct = json.get("correct").and_then(|c| c.as_bool()) == Some(true);
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} checked operations failed",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve_tenants --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            a,
            Args { workload: "serve_tenants".into(), seed: 7, seconds: 12, traced: true }
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload sim_quad").is_err());
        assert!(args("--workload sim_quad --seed x").is_err());
        assert!(args("--workload sim_quad --seed 1 --bogus 2").is_err());
        assert!(args("--workload sim_quad --seed").is_err());
    }
}
