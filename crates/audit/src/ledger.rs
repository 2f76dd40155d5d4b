//! The justification ledger and the one engine that checks the effect,
//! lock and atomic findings against it.
//!
//! Every tolerated finding of those families needs an entry in
//! `crates/audit/ledger.txt` (the reviewable ledger, same role as
//! `pub_baseline.txt` for the semantic lints):
//!
//! ```text
//! <lint> <crate> <Qualified::fn> <source> [tag] -- reason
//! ```
//!
//! where `<source>` names what the finding is about: an effect site
//! (`push`, `index`, `expect`, `unknown:<callee>`, or `fn` for a
//! whole-function allocation boundary), a lock identity, an `A->B`
//! acquisition-order edge, or an `<identity>:<op>:<Ordering>` atomic
//! claim. The optional `[tag]` ties an allocation exception to the
//! kernel's `# Allocation behaviour` contract (`alloc-contract-drift`
//! keeps the two lists equal).
//!
//! The `Ledger` engine records which entries the current findings
//! require. An entry nothing requires is stale and is reported under
//! its own lint id; an entry still carrying the [`STUB_REASON`] that
//! `--update-justify` writes is a `stub-justification` finding.

use crate::diag::{Diagnostic, Severity};
use crate::effects::FnInfo;
use crate::resolve::Workspace;
use crate::LINTS;
use std::collections::BTreeSet;

/// Workspace-relative path of the ledger.
pub const LEDGER_REL: &str = "crates/audit/ledger.txt";

/// The placeholder reason `--update-justify` writes for new findings.
///
/// A ledger entry still carrying this literal is a hard
/// `stub-justification` finding: the scaffolding flow is *stub, then
/// hand-write the reason*, and an unedited stub would otherwise silently
/// pass as a justification.
pub const STUB_REASON: &str = "TODO: justify";

/// Header written above a regenerated ledger.
const HEADER: &str = "# nucache-audit ledger: every entry tolerates one effect, lock or atomic finding.\n\
                      # Format: <lint> <crate> <Qualified::fn> <source> [tag] -- reason\n\
                      # Maintained by `nucache-audit --update-justify`; reasons are hand-written.\n";

/// One ledger entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Justification {
    /// Lint name.
    pub lint: String,
    /// Crate of the justified function.
    pub krate: String,
    /// `Parent::name`-qualified function.
    pub func: String,
    /// What the finding is about (see the module docs).
    pub source: String,
    /// Optional doc-contract tag (`[epoch-selection-scratch]`).
    pub tag: Option<String>,
    /// Why this finding is acceptable.
    pub reason: String,
}

impl Justification {
    /// Renders one ledger line.
    pub fn render(&self) -> String {
        let tag = self.tag.as_ref().map(|t| format!(" [{t}]")).unwrap_or_default();
        format!(
            "{} {} {} {}{} -- {}",
            self.lint, self.krate, self.func, self.source, tag, self.reason
        )
    }
}

/// The parsed ledger.
#[derive(Debug, Default, Clone)]
pub struct Justifications {
    /// Entries in file order.
    pub entries: Vec<Justification>,
}

impl Justifications {
    /// Parses ledger text. Lines are `lint crate fn source [tag] -- reason`;
    /// `#` comments and blank lines are skipped. Malformed lines and
    /// lines naming no known lint are reported as `(line, text)` errors.
    pub fn parse(text: &str) -> (Justifications, Vec<(usize, String)>) {
        let mut entries = Vec::new();
        let mut errors = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((head, reason)) = line.split_once(" -- ") else {
                errors.push((i + 1, raw.to_string()));
                continue;
            };
            let fields: Vec<&str> = head.split_whitespace().collect();
            let (fields, tag) = match fields.as_slice() {
                [rest @ .., last] if last.starts_with('[') && last.ends_with(']') => {
                    (rest.to_vec(), Some(last[1..last.len() - 1].to_string()))
                }
                _ => (fields, None),
            };
            let [lint, krate, func, source] = fields.as_slice() else {
                errors.push((i + 1, raw.to_string()));
                continue;
            };
            if !LINTS.iter().any(|(name, _)| name == lint) {
                errors.push((i + 1, raw.to_string()));
                continue;
            }
            entries.push(Justification {
                lint: (*lint).to_string(),
                krate: (*krate).to_string(),
                func: (*func).to_string(),
                source: (*source).to_string(),
                tag,
                reason: reason.trim().to_string(),
            });
        }
        (Justifications { entries }, errors)
    }

    /// Loads the ledger from `path`; a missing file is an empty ledger.
    ///
    /// # Errors
    ///
    /// Propagates read errors other than `NotFound`, so a ledger that
    /// exists but cannot be read never passes for an empty one.
    pub fn load(path: &std::path::Path) -> std::io::Result<(Justifications, Vec<(usize, String)>)> {
        match std::fs::read_to_string(path) {
            Ok(text) => Ok(Justifications::parse(&text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Default::default()),
            Err(e) => Err(e),
        }
    }

    /// Finds the entry covering `(lint, krate, func, source)`.
    pub fn covers(&self, lint: &str, krate: &str, func: &str, source: &str) -> Option<usize> {
        self.entries.iter().position(|e| {
            e.lint == lint && e.krate == krate && e.func == func && e.source == source
        })
    }

    /// Renders the full ledger under its header, one group per lint in
    /// [`LINTS`] order.
    pub fn render(&self) -> String {
        let mut out = String::from(HEADER);
        for (lint, _) in LINTS {
            let group: Vec<&Justification> =
                self.entries.iter().filter(|e| e.lint == *lint).collect();
            if group.is_empty() {
                continue;
            }
            out.push('\n');
            for e in group {
                out.push_str(&e.render());
                out.push('\n');
            }
        }
        out
    }
}

/// Checks findings against the ledger and collects them: which entries
/// are used, which are required (existing reasons kept, new ones
/// stubbed) and the diagnostics of every family that consults it.
#[derive(Debug)]
pub(crate) struct Ledger<'a> {
    ws: &'a Workspace,
    just: &'a Justifications,
    used: BTreeSet<usize>,
    required: Vec<Justification>,
    diags: Vec<Diagnostic>,
}

impl<'a> Ledger<'a> {
    /// An engine over `just` with nothing required yet.
    pub(crate) fn new(ws: &'a Workspace, just: &'a Justifications) -> Ledger<'a> {
        Ledger { ws, just, used: BTreeSet::new(), required: Vec::new(), diags: Vec::new() }
    }

    /// The ledger's entries.
    pub(crate) fn entries(&self) -> &'a [Justification] {
        &self.just.entries
    }

    /// Records the entry `(lint, f, source)` as required (deduplicated)
    /// and returns whether the ledger covers it. A covering entry still
    /// carrying the [`STUB_REASON`] is a `stub-justification` finding.
    pub(crate) fn require(&mut self, lint: &str, f: &FnInfo, source: &str) -> bool {
        let func = f.qualified();
        let covered = self.just.covers(lint, &f.crate_name, &func, source);
        if let Some(i) = covered {
            self.used.insert(i);
            if self.just.entries[i].reason == STUB_REASON {
                let message = format!(
                    "ledger entry `{lint} {} {func} {source}` still carries the \
                     `--update-justify` stub reason; write a real justification",
                    f.crate_name
                );
                self.report("stub-justification", f, f.span.line, message);
            }
        }
        let entry = match covered {
            Some(i) => self.just.entries[i].clone(),
            None => Justification {
                lint: lint.to_string(),
                krate: f.crate_name.clone(),
                func,
                source: source.to_string(),
                tag: None,
                reason: STUB_REASON.to_string(),
            },
        };
        if !self.required.contains(&entry) {
            self.required.push(entry);
        }
        covered.is_some()
    }

    /// Requires `(lint, f, source)` and reports `message` at `line` of
    /// `f`'s file when the ledger does not cover it.
    pub(crate) fn check(
        &mut self,
        lint: &'static str,
        f: &FnInfo,
        source: &str,
        line: usize,
        message: String,
    ) {
        if !self.require(lint, f, source) {
            self.report(lint, f, line, message);
        }
    }

    /// Reports a finding at `line` of `f`'s file.
    pub(crate) fn report(&mut self, lint: &'static str, f: &FnInfo, line: usize, message: String) {
        let file = self.ws.files[f.file].rel.clone();
        self.push(Diagnostic { file, line, lint, message, severity: Severity::Error });
    }

    /// Reports a finding that is not anchored in a function.
    pub(crate) fn push(&mut self, diag: Diagnostic) {
        self.diags.push(diag);
    }

    /// Ends the run: reports every entry no finding required as stale,
    /// under its own lint id, and returns the diagnostics plus the
    /// required entries (for `--update-justify`).
    pub(crate) fn finish(mut self) -> (Vec<Diagnostic>, Vec<Justification>) {
        for (i, e) in self.just.entries.iter().enumerate() {
            if self.used.contains(&i) {
                continue;
            }
            // `parse` only admits entries naming a listed lint.
            let Some(&(lint, _)) = LINTS.iter().find(|(name, _)| *name == e.lint) else {
                continue;
            };
            self.diags.push(Diagnostic {
                file: LEDGER_REL.to_string(),
                line: 0,
                lint,
                message: format!(
                    "stale ledger entry `{}` — no current finding requires it",
                    e.render()
                ),
                severity: Severity::Error,
            });
        }
        (self.diags, self.required)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_roundtrip() {
        let text = "# comment\n\
                    alloc-in-hot-path nucache-kernel Kernel::run fn [epoch-scratch] -- bounded per epoch\n\
                    panic-in-hot-path nucache-kernel Kernel::get index -- set index is masked\n\
                    double-lock nucache-sim Solo::snapshot field:Solo.cells -- read-only guard\n";
        let (j, errs) = Justifications::parse(text);
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(j.entries.len(), 3);
        assert_eq!(j.entries[0].tag.as_deref(), Some("epoch-scratch"));
        assert_eq!(j.entries[1].tag, None);
        assert!(j.covers("panic-in-hot-path", "nucache-kernel", "Kernel::get", "index").is_some());
        assert!(j.covers("panic-in-hot-path", "nucache-kernel", "Kernel::get", "push").is_none());
        let rendered = j.render();
        let (j2, errs2) = Justifications::parse(&rendered);
        assert!(errs2.is_empty());
        assert_eq!(j2.entries, j.entries, "render/parse roundtrip");
    }

    #[test]
    fn malformed_ledger_lines_are_reported() {
        let (_, errs) = Justifications::parse(
            "no separator here\n\
             alloc-in-hot-path a b -- too few fields\n\
             no-such-lint a b c -- unknown lint\n",
        );
        assert_eq!(errs.iter().map(|(line, _)| *line).collect::<Vec<_>>(), [1, 2, 3]);
    }
}
