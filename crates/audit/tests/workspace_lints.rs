//! Integration tests for the workspace-level semantic lints, driven by
//! the fixture mini-workspaces under `tests/fixtures/`.
//!
//! Each fixture is a tiny `crates/<name>/src/...` tree with known-good
//! and known-bad patterns for one lint; the walker skips `fixtures`
//! directories, so these files never leak into the real audit run.

#![expect(clippy::expect_used, reason = "fixture loading fails only on a broken checkout")]

use nucache_audit::diag::to_json;
use nucache_audit::{Baseline, Diagnostic, EffectModel, Justifications, Workspace};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures").join(name)
}

/// The full audit run over the workspace at `root`, with no ledger.
fn audit(root: &Path, baseline: &Baseline) -> Vec<Diagnostic> {
    let ws = Workspace::load(root).expect("load workspace");
    let model = EffectModel::build(&ws);
    nucache_audit::run(&ws, &model, &Justifications::default(), baseline).0
}

fn lint_fixture(name: &str, baseline: &Baseline) -> Vec<Diagnostic> {
    audit(&fixture(name), baseline)
}

fn of_lint<'d>(diags: &'d [Diagnostic], lint: &str) -> Vec<&'d Diagnostic> {
    diags.iter().filter(|d| d.lint == lint).collect()
}

#[test]
fn clean_fixture_is_clean() {
    let baseline = Baseline::parse("nucache-app fn run\n");
    let diags = lint_fixture("clean", &baseline);
    assert!(diags.is_empty(), "expected clean, got: {diags:?}");
}

#[test]
fn counter_flow_fixture_flags_each_failure_mode() {
    let diags = lint_fixture("counter_flow", &Baseline::default());
    let findings = of_lint(&diags, "counter-dataflow");
    let messages: Vec<&str> = findings.iter().map(|d| d.message.as_str()).collect();
    assert!(
        messages.iter().any(|m| m.contains("write-only counter `EpochStats::misses`")),
        "missing write-only finding: {messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("read-only counter `EpochStats::stalls`")),
        "missing read-only finding: {messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("`LeakyStats` accumulates but has no reset path")),
        "missing reset-path finding: {messages:?}"
    );
    // `hits` flows correctly.
    assert!(!messages.iter().any(|m| m.contains("hits")));
    assert_eq!(findings.len(), 3, "exactly the three seeded defects: {messages:?}");
}

#[test]
fn dead_pub_fixture_respects_baseline() {
    // Without a baseline: both `unused` and the fixture's entry point.
    let diags = lint_fixture("dead_pub", &Baseline::default());
    let all: Vec<String> =
        of_lint(&diags, "dead-cross-crate-pub").iter().map(|d| d.message.clone()).collect();
    assert!(all.iter().any(|m| m.contains("nucache-a fn unused")), "{all:?}");
    assert!(all.iter().any(|m| m.contains("nucache-b fn caller")), "{all:?}");
    assert!(!all.iter().any(|m| m.contains("fn used")), "{all:?}");

    // Baselining `caller` leaves exactly the genuine corpse.
    let baseline = Baseline::parse("# fixture entry point\nnucache-b fn caller\n");
    let diags = lint_fixture("dead_pub", &baseline);
    let left = of_lint(&diags, "dead-cross-crate-pub");
    assert_eq!(left.len(), 1, "{left:?}");
    assert!(left[0].message.contains("nucache-a fn unused"));
}

#[test]
fn dead_pub_stale_baseline_entry_is_a_finding() {
    // `used` is referenced from crate `b`, so its entry excuses nothing:
    // the finding names the baseline line to delete.
    let baseline = Baseline::parse("nucache-b fn caller\nnucache-a fn used\n");
    let diags = lint_fixture("dead_pub", &baseline);
    let stale: Vec<&Diagnostic> = of_lint(&diags, "dead-cross-crate-pub")
        .into_iter()
        .filter(|d| d.message.contains("stale baseline entry"))
        .collect();
    assert_eq!(stale.len(), 1, "{diags:?}");
    assert_eq!(stale[0].file, nucache_audit::BASELINE_REL);
    assert_eq!(stale[0].line, 2);
    assert!(stale[0].message.contains("`nucache-a fn used`"), "{stale:?}");
    assert!(stale[0].message.contains("delete line 2"), "{stale:?}");
}

#[test]
fn json_output_is_byte_identical_across_runs() {
    let run = || to_json(&lint_fixture("counter_flow", &Baseline::default()));
    let first = run();
    assert_eq!(first, run(), "lint JSON must be deterministic");
    // Three counter-dataflow and six dead-cross-crate-pub findings.
    assert!(first.contains("\"violations\": 9"), "{first}");
}

#[test]
fn real_workspace_audits_deterministically() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let baseline = Baseline::load(&root.join(nucache_audit::BASELINE_REL)).expect("baseline");
    let run = || to_json(&audit(&root, &baseline));
    assert_eq!(run(), run(), "audit JSON must be deterministic");
}
