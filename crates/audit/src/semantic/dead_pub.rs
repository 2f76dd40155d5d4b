//! The `dead-cross-crate-pub` lint and its checked-in baseline.
//!
//! A `pub` item in a lib crate that nothing outside the crate ever
//! references is API surface without a consumer: it can't be refactored
//! safely (who knows who uses it?) yet nobody does. The lint flags every
//! such item — unless it is recorded in the baseline file
//! `crates/audit/pub_baseline.txt`, where each entry is a deliberate,
//! commented decision to keep the surface (e.g. "library API for
//! downstream experiments, not yet consumed in-tree").
//!
//! Scope and exclusions:
//!
//! * Only items declared in *lib* compilation units count — `pub` in a
//!   binary or test target is not importable anyway.
//! * Fields and re-exports are skipped (reached through instances /
//!   counted at their definition).
//! * The `nucache-audit` crate itself is skipped: its library exists for
//!   its own binary and unit tests by design.
//! * Items gated `#[cfg(test)]` are skipped.
//! * A reference from the crate's own `tests/`, `benches/` or `bin`
//!   targets counts as external — cargo compiles those as separate
//!   crates, so the `pub` is genuinely load-bearing.
//!
//! Baseline file format, one entry per line:
//!
//! ```text
//! # comment
//! <crate> <kind> <Qualified::name>
//! ```
//!
//! keyed on stable identity, not line numbers, so entries survive
//! unrelated edits. The baseline follows the ledger's rule: an entry
//! that no longer matches a dead pub item is stale, and is itself a
//! finding that names the line to delete. A new finding names the entry
//! to add.

use crate::diag::{Diagnostic, Severity};
use crate::resolve::Workspace;
use crate::symbols::{SymbolKind, Visibility};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Workspace-relative path of the baseline.
pub const BASELINE_REL: &str = "crates/audit/pub_baseline.txt";

const LINT: &str = "dead-cross-crate-pub";

/// Crates whose pub surface is intentionally self-contained.
const EXEMPT_CRATES: &[&str] = &["nucache-audit"];

/// The checked-in set of accepted dead-pub entries.
#[derive(Debug, Default)]
pub struct Baseline {
    /// `"<crate> <kind> <qualified>"` entry strings, with the 1-indexed
    /// line each sits on.
    pub entries: BTreeMap<String, usize>,
}

impl Baseline {
    /// Parses baseline text: one entry per line, `#` comments and blank
    /// lines ignored.
    pub fn parse(text: &str) -> Baseline {
        let entries = text
            .lines()
            .enumerate()
            .map(|(i, l)| (l.trim(), i + 1))
            .filter(|(l, _)| !l.is_empty() && !l.starts_with('#'))
            .map(|(l, line)| (l.to_string(), line))
            .collect();
        Baseline { entries }
    }

    /// Loads the baseline from `path`; a missing file is an empty
    /// baseline (fixture workspaces).
    ///
    /// # Errors
    ///
    /// Propagates read errors other than `NotFound`.
    pub fn load(path: &Path) -> std::io::Result<Baseline> {
        match std::fs::read_to_string(path) {
            Ok(text) => Ok(Baseline::parse(&text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::default()),
            Err(e) => Err(e),
        }
    }
}

/// The stable baseline key of one symbol.
fn entry_key(krate: &str, kind_label: &str, qualified: &str) -> String {
    format!("{krate} {kind_label} {qualified}")
}

/// Computes the current dead-pub entry set as `(entry-key, file, line)`.
fn current_entries(ws: &Workspace) -> BTreeSet<(String, String, usize)> {
    // (entry-key, file, line)
    let mut out = BTreeSet::new();
    for (id, sym) in ws.index.symbols.iter().enumerate() {
        let krate = ws.index.crates[id].as_str();
        if krate.starts_with("vendor/") || EXEMPT_CRATES.contains(&krate) {
            continue;
        }
        if sym.vis != Visibility::Pub
            || sym.kind == SymbolKind::Field
            || sym.kind == SymbolKind::Reexport
        {
            continue;
        }
        let Some(file_idx) = super::file_index(ws, &sym.file) else { continue };
        let file = &ws.files[file_idx];
        // Only lib units export importable API.
        if file.unit != file.class.crate_name || file.scanned.is_test_code(sym.line) {
            continue;
        }
        let externally_referenced = ws
            .occurrences_of(&sym.name)
            .iter()
            .any(|occ| ws.files[occ.file].unit != krate && !ws.is_declaration(&sym.name, occ));
        if externally_referenced {
            continue;
        }
        out.insert((
            entry_key(krate, sym.kind.label(), &sym.qualified()),
            sym.file.clone(),
            sym.line,
        ));
    }
    out
}

/// Runs the lint, appending findings (dead items not in `baseline`,
/// and baseline entries no dead item matches) to `out`.
pub fn lint(ws: &Workspace, baseline: &Baseline, out: &mut Vec<Diagnostic>) {
    let current = current_entries(ws);
    for (key, file, line) in &current {
        if baseline.entries.contains_key(key) {
            continue;
        }
        out.push(Diagnostic {
            file: file.clone(),
            line: *line,
            lint: LINT,
            message: format!(
                "pub item with no reference outside its crate: {key} — remove the pub, \
                 reference it, or add it to {BASELINE_REL} with a comment"
            ),
            severity: Severity::Error,
        });
    }
    let current: BTreeSet<&String> = current.iter().map(|(key, _, _)| key).collect();
    for (key, &line) in &baseline.entries {
        if !current.contains(key) {
            out.push(Diagnostic {
                file: BASELINE_REL.to_string(),
                line,
                lint: LINT,
                message: format!(
                    "stale baseline entry `{key}` — no unreferenced pub item matches it; \
                     delete line {line}"
                ),
                severity: Severity::Error,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_parse_keeps_lines() {
        let text =
            "# header\n\nnucache-core fn NuCache::epoch_len\n  nucache-sim struct SimConfig  \n";
        let b = Baseline::parse(text);
        assert_eq!(b.entries.len(), 2);
        assert_eq!(b.entries.get("nucache-core fn NuCache::epoch_len"), Some(&3));
        assert_eq!(b.entries.get("nucache-sim struct SimConfig"), Some(&4));
    }

    #[test]
    fn missing_file_is_empty() {
        let b = Baseline::load(Path::new("/nonexistent/pub_baseline.txt")).expect("ok");
        assert!(b.entries.is_empty());
    }
}
