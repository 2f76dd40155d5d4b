//! Integration tests for the workspace-level semantic lints, driven by
//! the fixture mini-workspaces under `tests/fixtures/`.
//!
//! Each fixture is a tiny `crates/<name>/src/...` tree with known-good
//! and known-bad patterns for one lint; the walker skips `fixtures`
//! directories, so these files never leak into the real audit run.

#![expect(clippy::expect_used, reason = "fixture loading fails only on a broken checkout")]

use nucache_audit::diag::to_json;
use nucache_audit::semantic::run_semantic_lints;
use nucache_audit::{Baseline, Diagnostic, UseGraph, Workspace};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures").join(name)
}

fn lint_fixture(name: &str, baseline: &Baseline) -> Vec<Diagnostic> {
    let ws = Workspace::load(&fixture(name)).expect("load fixture");
    run_semantic_lints(&ws, baseline)
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
    // `hits` flows correctly and `probes` is suppressed at the site.
    assert!(!messages.iter().any(|m| m.contains("hits") || m.contains("probes")));
    assert_eq!(findings.len(), 3, "exactly the three seeded defects: {messages:?}");
}

#[test]
fn doc_drift_fixture_flags_mismatch_missing_and_unfoldable() {
    let diags = lint_fixture("doc_drift", &Baseline::default());
    let messages: Vec<&str> =
        of_lint(&diags, "doc-constant-drift").iter().map(|d| d.message.as_str()).collect();
    assert_eq!(messages.len(), 3, "{messages:?}");
    assert!(messages.iter().any(|m| m.contains("`BAD_CONST` is 8") && m.contains("documents 9")));
    assert!(messages.iter().any(|m| m.contains("`MISSING_CONST`") && m.contains("no such const")));
    assert!(messages.iter().any(|m| m.contains("`OPAQUE_CONST`") && m.contains("cannot evaluate")));
    // The matching row is silent.
    assert!(!messages.iter().any(|m| m.contains("GOOD_CONST")));
}

#[test]
fn cfg_gates_fixture_flags_only_ungated_references() {
    let diags = lint_fixture("cfg_gates", &Baseline::default());
    let findings = of_lint(&diags, "cfg-gate-consistency");
    assert_eq!(findings.len(), 3, "{findings:?}");
    let invariant_findings: Vec<_> =
        findings.iter().filter(|d| d.message.contains("debug_invariants")).collect();
    assert_eq!(invariant_findings.len(), 2, "{findings:?}");
    for d in &invariant_findings {
        // Both bad references sit inside the ungated `run`.
        assert!(d.file.ends_with("core/src/lib.rs"), "{d:?}");
        assert!(d.line >= 25, "finding above the ungated fn: {d:?}");
    }
    // `std` is a default feature of the declaring crate: the ungated
    // cross-crate reference is flagged only where the referencing crate
    // turns the defaults off. The same reference in `app` (defaults
    // kept) and in `core/src/hosted.rs` (gate inherited from the `mod`
    // declaration) must stay silent.
    let std_findings: Vec<_> =
        findings.iter().filter(|d| d.message.contains("hosted_helper")).collect();
    assert_eq!(std_findings.len(), 1, "{findings:?}");
    assert!(std_findings[0].file.ends_with("nostd/src/lib.rs"), "{findings:?}");
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
fn json_output_is_byte_identical_across_runs() {
    let run = || {
        let ws = Workspace::load(&fixture("doc_drift")).expect("load");
        let diags = run_semantic_lints(&ws, &Baseline::default());
        (to_json(&diags), UseGraph::build(&ws).render_json())
    };
    let (lint1, graph1) = run();
    let (lint2, graph2) = run();
    assert_eq!(lint1, lint2, "lint JSON must be deterministic");
    assert_eq!(graph1, graph2, "graph JSON must be deterministic");
    // 3 doc-drift findings plus the fixture's 3 unreferenced pub consts.
    assert!(lint1.contains("\"violations\": 6"), "{lint1}");
}

#[test]
fn real_workspace_loads_and_renders_deterministically() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let ws1 = Workspace::load(&root).expect("load workspace");
    let ws2 = Workspace::load(&root).expect("load workspace");
    let g1 = UseGraph::build(&ws1).render_json();
    let g2 = UseGraph::build(&ws2).render_json();
    assert_eq!(g1, g2);
    // The simulator genuinely crosses crates; spot-check a known edge.
    assert!(
        g1.contains("\"from\": \"nucache-sim\", \"to\": \"nucache-core\""),
        "expected a sim -> core edge in:\n{g1}"
    );
}
