//! CLI for the workspace audit: one run, every lint.
//!
//! ```text
//! cargo run -p nucache-audit                            # all lints, text output
//! cargo run -p nucache-audit -- --format json           # machine-readable, for CI
//! cargo run -p nucache-audit -- --lint counter-dataflow # report one lint only
//! cargo run -p nucache-audit -- --update-justify        # rewrite ledger.txt stubs
//! cargo run -p nucache-audit -- --list                  # per-function effect sets
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

#![forbid(unsafe_code)]

use nucache_audit::{
    Baseline, EffectModel, Justifications, Workspace, BASELINE_REL, LEDGER_REL, LINTS,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() {
    eprintln!(
        "usage: nucache-audit [options]\n\
         \n\
         Runs every lint below over the workspace in one pass.\n\
         \n\
         options:\n\
         \x20 --format text|json   output format (default text)\n\
         \x20 --root PATH          workspace root (default: this checkout)\n\
         \x20 --lint NAME          report only the named lint(s); repeatable\n\
         \x20 --update-justify     rewrite {LEDGER_REL} from current findings\n\
         \x20                      (existing reasons kept, new entries stubbed)\n\
         \x20 --list               print per-function inferred effect sets\n\
         \n\
         exit codes: 0 = clean, 1 = violations found, 2 = usage or I/O error\n\
         \n\
         lints:"
    );
    for (name, rule) in LINTS {
        eprintln!("  {name:<28} {rule}");
    }
    eprintln!(
        "\ntolerate a finding with an entry in {LEDGER_REL} (effect, lock and atomic\n\
         lints) or {BASELINE_REL} (dead-cross-crate-pub); stale entries are findings."
    );
}

/// Parsed command line.
struct Cli {
    format: String,
    root: PathBuf,
    only: Vec<String>,
    update_justify: bool,
    list_effects: bool,
}

fn parse_args() -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        format: String::from("text"),
        root: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(".."),
        only: Vec::new(),
        update_justify: false,
        list_effects: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next() {
                Some(f) if f == "text" || f == "json" => cli.format = f,
                _ => return Err("--format takes `text` or `json`".into()),
            },
            "--root" => match args.next() {
                Some(p) => cli.root = PathBuf::from(p),
                None => return Err("--root takes a path".into()),
            },
            "--lint" => match args.next() {
                Some(name) if LINTS.iter().any(|(n, _)| *n == name) => cli.only.push(name),
                Some(name) => return Err(format!("unknown lint {name:?} (see --help)")),
                None => return Err("--lint takes a lint name".into()),
            },
            "--update-justify" => cli.update_justify = true,
            "--list" => cli.list_effects = true,
            "--help" | "-h" => {
                usage();
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Some(cli))
}

/// Loads the workspace once, builds the effect model once and runs all
/// lints against the ledger and the dead-pub baseline.
fn run(cli: &Cli) -> Result<ExitCode, String> {
    let ws = Workspace::load(&cli.root).map_err(|e| format!("scanning workspace: {e}"))?;
    let model = EffectModel::build(&ws);

    if cli.list_effects {
        for f in &model.fns {
            println!("{:<18} {:<40} {}", f.crate_name, f.qualified(), f.effects);
        }
        return Ok(ExitCode::SUCCESS);
    }

    let path = cli.root.join(LEDGER_REL);
    let (just, errors) = Justifications::load(&path).map_err(|e| format!("{LEDGER_REL}: {e}"))?;
    if let Some((line, text)) = errors.first() {
        return Err(format!("{LEDGER_REL}:{line}: malformed ledger line: {text:?}"));
    }
    let baseline =
        Baseline::load(&cli.root.join(BASELINE_REL)).map_err(|e| format!("baseline: {e}"))?;
    let (mut diags, required) = nucache_audit::run(&ws, &model, &just, &baseline);

    if cli.update_justify {
        let mut ledger = Justifications { entries: required };
        ledger.entries.sort_by(|a, b| {
            (&a.lint, &a.krate, &a.func, &a.source).cmp(&(&b.lint, &b.krate, &b.func, &b.source))
        });
        ledger.entries.dedup();
        let count = ledger.entries.len();
        std::fs::write(&path, ledger.render()).map_err(|e| format!("writing {path:?}: {e}"))?;
        eprintln!("wrote {count} entries to {}", path.display());
        return Ok(ExitCode::SUCCESS);
    }

    if !cli.only.is_empty() {
        diags.retain(|d| cli.only.iter().any(|n| n == d.lint));
    }
    if cli.format == "json" {
        print!("{}", nucache_audit::diag::to_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
        if diags.is_empty() {
            let scope = if cli.only.is_empty() {
                format!("{} lints", LINTS.len())
            } else {
                format!("{} of {} lints", cli.only.len(), LINTS.len())
            };
            eprintln!(
                "nucache-audit: workspace clean ({scope}, {} ledger and {} baseline entries)",
                just.entries.len(),
                baseline.entries.len()
            );
        } else {
            eprintln!("nucache-audit: {} violation(s)", diags.len());
        }
    }
    Ok(if diags.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(Some(cli)) => cli,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::from(2);
        }
    };
    match run(&cli) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
