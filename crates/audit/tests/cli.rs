//! End-to-end tests of the `nucache-audit` binary: one run over a
//! scratch workspace holding the `locks` fixture and a ledger, filtered
//! with `--lint`.

#![expect(clippy::expect_used, reason = "scratch-workspace setup fails only on a broken host")]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// One stale entry per lint the ledger can hold: no finding in the
/// fixture requires any of them.
const STALE: &[(&str, &str)] = &[
    ("alloc-in-hot-path", "alloc-in-hot-path nucache-locky Pair::gone push -- stale"),
    ("panic-in-hot-path", "panic-in-hot-path nucache-locky Pair::gone index -- stale"),
    ("lock-held-across-call", "lock-held-across-call nucache-locky Pair::gone push -- stale"),
    (
        "lock-order-cycle",
        "lock-order-cycle nucache-locky Pair::gone field:Pair.a->field:Pair.b -- stale",
    ),
    ("double-lock", "double-lock nucache-locky Pair::gone field:Pair.a -- stale"),
    ("guard-escapes-hot-path", "guard-escapes-hot-path nucache-locky Pair::gone return -- stale"),
    (
        "atomic-ordering",
        "atomic-ordering nucache-locky Pair::gone field:Pair.c:load:Relaxed -- stale",
    ),
];

/// A scratch workspace: the `locks` fixture crate plus `ledger` as
/// `crates/audit/ledger.txt`.
fn scratch_root(name: &str, ledger: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let src = root.join("crates/locky/src");
    std::fs::create_dir_all(&src).expect("create scratch crate");
    std::fs::write(src.join("lib.rs"), include_str!("fixtures/locks/crates/locky/src/lib.rs"))
        .expect("write scratch crate");
    std::fs::create_dir_all(root.join("crates/audit")).expect("create scratch audit dir");
    std::fs::write(root.join("crates/audit/ledger.txt"), ledger).expect("write scratch ledger");
    root
}

fn audit(root: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nucache-audit"))
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("run nucache-audit")
}

#[test]
fn stale_entries_report_under_their_own_lint() {
    let ledger: String = STALE.iter().map(|(_, line)| format!("{line}\n")).collect();
    let root = scratch_root("stale_ledger", &ledger);
    for (lint, line) in STALE {
        let out = audit(&root, &["--lint", lint]);
        assert_eq!(out.status.code(), Some(1), "--lint {lint}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let entry = line.split(" -- ").next().expect("entry head");
        let expected = format!(
            "crates/audit/ledger.txt: error[{lint}]: stale ledger entry `{entry} -- stale`"
        );
        assert!(stdout.lines().any(|l| l.starts_with(&expected)), "--lint {lint}:\n{stdout}");
        let stale: Vec<&str> =
            stdout.lines().filter(|l| l.contains("stale ledger entry")).collect();
        assert_eq!(stale.len(), 1, "--lint {lint} shows only its own stale entry:\n{stdout}");
    }
}

#[test]
fn every_listed_lint_is_accepted() {
    let root = scratch_root("listed_lints", "");
    let help = audit(&root, &["--help"]);
    assert_eq!(help.status.code(), Some(0));
    let listing = String::from_utf8_lossy(&help.stderr);
    for (lint, _) in nucache_audit::LINTS {
        assert!(listing.contains(lint), "--help lists {lint}:\n{listing}");
        let out = audit(&root, &["--lint", lint]);
        assert_ne!(out.status.code(), Some(2), "--lint {lint} is a usage error");
    }
    assert_eq!(nucache_audit::LINTS.len(), 11);
}

#[test]
fn subcommands_and_unknown_lints_are_usage_errors() {
    let root = scratch_root("usage", "");
    for args in [&["lint"][..], &["effects"], &["--update-baseline"], &["--lint", "no-such-lint"]] {
        assert_eq!(audit(&root, args).status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn malformed_or_unreadable_ledger_is_an_error() {
    let root = scratch_root("malformed", "no-such-lint a b c -- unknown lint\n");
    let out = audit(&root, &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("crates/audit/ledger.txt:1:"));
    // Not UTF-8: the ledger must not load as empty.
    std::fs::write(root.join("crates/audit/ledger.txt"), b"double-lock \xff -- x\n")
        .expect("write scratch ledger");
    assert_eq!(audit(&root, &[]).status.code(), Some(2));
}
