//! The per-file `forbid-unsafe-missing` lint.
//!
//! The determinism, wall-clock, lossy-cast and unwrap rules are enforced
//! by clippy at `deny` (see `[workspace.lints.clippy]` and `clippy.toml`
//! at the workspace root); this pass keeps only the rule clippy cannot
//! express: every crate root, vendored ones included, must carry
//! `#![forbid(unsafe_code)]`, and every manifest must opt into the
//! workspace lint table that pins it.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::scan;
use crate::walk::{classify, collect_rs_files};
use std::path::Path;

/// Names of every per-file lint the tool knows, with one-line rules.
pub const LINTS: &[(&str, &str)] =
    &[("forbid-unsafe-missing", "every crate root must carry #![forbid(unsafe_code)]")];

/// Lints one file. `rel` is the workspace-relative path with forward
/// slashes.
pub fn lint_file(rel: &str, source: &str) -> Vec<Diagnostic> {
    const LINT: &str = "forbid-unsafe-missing";
    let s = scan(source);
    let mut out = Vec::new();
    // An `allow(unsafe_code)` anywhere (inner or outer attribute) carves
    // a hole in the workspace-wide forbid; ban it in every file.
    for (line_no, line) in s.lines() {
        if s.is_suppressed(LINT, line_no) {
            continue;
        }
        if line.replace(' ', "").contains("allow(unsafe_code)") {
            out.push(Diagnostic {
                file: rel.to_string(),
                line: line_no,
                lint: LINT,
                message: "`allow(unsafe_code)` weakens the workspace-wide forbid".to_string(),
                severity: Severity::Error,
            });
        }
    }
    if !classify(rel).is_crate_root || s.is_suppressed(LINT, 0) || s.is_suppressed(LINT, 1) {
        return out;
    }
    let squashed: String = s.blanked.chars().filter(|c| !c.is_whitespace()).collect();
    if !squashed.contains("#![forbid(unsafe_code)]") {
        out.push(Diagnostic {
            file: rel.to_string(),
            line: 0,
            lint: LINT,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            severity: Severity::Error,
        });
    }
    out
}

/// Manifest half of `forbid-unsafe-missing`: the inline attribute only
/// covers the crate root's module tree, so every workspace crate must
/// also opt into the workspace lint table (which reaches bins, examples
/// and build scripts), and the root manifest must actually pin
/// `unsafe_code = "forbid"` there.
fn lint_unsafe_manifest_gaps(root: &Path) -> Vec<Diagnostic> {
    const LINT: &str = "forbid-unsafe-missing";
    let mut out = Vec::new();
    for (name, m) in &crate::manifest::Manifests::load(root).by_crate {
        if name == "root" {
            if !m.forbids_unsafe {
                out.push(Diagnostic {
                    file: "Cargo.toml".to_string(),
                    line: 0,
                    lint: LINT,
                    message: "workspace lint table must pin `unsafe_code = \"forbid\"`".to_string(),
                    severity: Severity::Error,
                });
            }
        } else if !m.lints_workspace {
            let dir = name.strip_prefix("nucache-").unwrap_or(name);
            out.push(Diagnostic {
                file: format!("crates/{dir}/Cargo.toml"),
                line: 0,
                lint: LINT,
                message: "crate must opt into the workspace lint table with \
                          `[lints] workspace = true` so `unsafe_code = \"forbid\"` \
                          reaches its bins and build scripts"
                    .to_string(),
                severity: Severity::Error,
            });
        }
    }
    out
}

/// Runs the lint over every `.rs` file under `root`. Returns findings
/// sorted by (file, line, lint) — deterministic for CI diffing.
pub fn run_lints(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = rel_path(root, &path);
        let source = std::fs::read_to_string(&path)?;
        out.extend(lint_file(&rel, &source));
    }
    out.extend(lint_unsafe_manifest_gaps(root));
    out.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok(out)
}

/// Workspace-relative path with forward slashes.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.lint).collect()
    }

    #[test]
    fn forbid_unsafe_fires_on_bare_root() {
        let d = lint_file("crates/core/src/lib.rs", "pub mod llc;\n");
        assert_eq!(names(&d), ["forbid-unsafe-missing"]);
        assert_eq!(d[0].line, 0);
    }

    #[test]
    fn forbid_unsafe_clean_with_attribute_and_non_roots() {
        assert!(lint_file("crates/core/src/lib.rs", "#![forbid(unsafe_code)]\npub mod llc;\n")
            .is_empty());
        assert!(lint_file("crates/core/src/llc.rs", "pub struct NuCache;\n").is_empty());
    }

    #[test]
    fn forbid_unsafe_suppressed_file_wide() {
        let src = "// nucache-audit: allow-file(forbid-unsafe-missing)\npub mod llc;\n";
        assert!(lint_file("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn forbid_unsafe_flags_allow_unsafe_code_anywhere() {
        let d = lint_file("crates/core/src/llc.rs", "#[allow(unsafe_code)]\nfn f() {}\n");
        assert_eq!(names(&d), ["forbid-unsafe-missing"]);
        assert_eq!(d[0].line, 1);
        // Inner attribute form and mentions inside comments.
        let d = lint_file("crates/core/src/llc.rs", "#![allow( unsafe_code )]\n");
        assert_eq!(names(&d), ["forbid-unsafe-missing"]);
        assert!(lint_file("crates/core/src/llc.rs", "// allow(unsafe_code) in prose\n").is_empty());
    }
}
