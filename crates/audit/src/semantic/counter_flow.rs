//! The `counter-dataflow` lint.
//!
//! The reproduced figures are computed entirely from counters: epoch
//! snapshots, monitor tallies, LLC hit/miss bundles. A counter that is
//! incremented but never read is dead weight that *looks* like
//! instrumentation; one that is read but never written reports a
//! perpetual zero and silently poisons every derived number. Both are
//! the instrumentation/model-disagreement failure mode the reuse-distance
//! literature warns about, so both are errors here.
//!
//! Scope: integer scalar fields (`u64`/`u32`/`usize`) of structs declared
//! in the statistics-bearing crates (`nucache-common`, `nucache-trace`,
//! `nucache-core`) in counter-bearing files (stem contains `stat`,
//! `telemetry`, `monitor`, `counter`) or counter-named structs
//! (`*Stats`, `*Counter*`, `*Summary`, `*Snapshot`, `*Audit`, `*Sink`).
//!
//! Occurrences are matched by field name across the whole workspace
//! (vendor code and test code excluded), so a same-named local that
//! shadows the field counts toward it — conservative in the right
//! direction: collisions can only hide a finding, never invent one.
//!
//! Additionally, a counter struct with at least one incremented field
//! must have a *reset path*: `#[derive(Default)]`, an `impl Default`, a
//! `clear`/`reset`/`decay` method, or fresh struct-literal construction.
//! Otherwise its counters can never be re-initialized per epoch.

use crate::diag::{Diagnostic, Severity};
use crate::resolve::{Occurrence, UseKind, Workspace};
use crate::symbols::{Symbol, SymbolKind};
use std::collections::BTreeSet;

const LINT: &str = "counter-dataflow";

/// Crates whose counter declarations are audited.
const COUNTER_CRATES: &[&str] = &["nucache-common", "nucache-trace", "nucache-core"];

/// File-stem markers for counter-bearing modules.
const COUNTER_FILES: &[&str] = &["stat", "telemetry", "monitor", "counter"];

/// Struct-name markers for counter bundles declared elsewhere.
const COUNTER_STRUCTS: &[&str] = &["Stats", "Counter", "Summary", "Snapshot", "Audit", "Sink"];

/// Integer scalar types treated as counters.
const COUNTER_TYPES: &[&str] = &["u64", "u32", "usize", "u128"];

/// Whether `sym` (a field) is in scope for the lint.
fn is_counter_field(ws: &Workspace, id: usize, sym: &Symbol) -> bool {
    if sym.kind != SymbolKind::Field {
        return false;
    }
    if !COUNTER_CRATES.contains(&ws.index.crates[id].as_str()) {
        return false;
    }
    let ty_ok = sym.field_type.as_deref().is_some_and(|t| COUNTER_TYPES.contains(&t));
    if !ty_ok {
        return false;
    }
    let stem = sym.file.rsplit('/').next().unwrap_or(&sym.file);
    let file_marked = COUNTER_FILES.iter().any(|m| stem.contains(m));
    let struct_marked =
        sym.parent.as_deref().is_some_and(|p| COUNTER_STRUCTS.iter().any(|m| p.contains(m)));
    file_marked || struct_marked
}

/// Whether the occurrence should count at all: lib/bin/example/bench
/// code outside tests and vendor.
fn in_scope(ws: &Workspace, occ: &Occurrence) -> bool {
    let f = &ws.files[occ.file];
    !f.class.is_vendor && !ws.is_test_occurrence(occ)
}

/// Classified totals for one field name.
#[derive(Debug, Default)]
struct Flow {
    increments: u64,
    assigns: u64,
    inits: u64,
    reads: u64,
}

fn classify_flow(ws: &Workspace, name: &str) -> Flow {
    let mut flow = Flow::default();
    for occ in ws.occurrences_of(name) {
        if !in_scope(ws, occ) || ws.is_declaration(name, occ) {
            continue;
        }
        match occ.kind {
            UseKind::Increment => flow.increments += 1,
            UseKind::Assign => flow.assigns += 1,
            // `name(…)` is a call of a same-named method, not an init.
            UseKind::Init if !occ.call => flow.inits += 1,
            _ => flow.reads += 1,
        }
    }
    flow
}

/// Whether struct `name` has a reset/re-initialization path.
fn has_reset_path(ws: &Workspace, strukt: &Symbol) -> bool {
    let file = ws.files.iter().find(|f| f.rel == strukt.file);
    // #[derive(Default)] on the struct.
    if file.is_some_and(|f| f.symbols.derives_default.iter().any(|d| d == &strukt.name)) {
        return true;
    }
    // An impl Default for it, or a clear/reset/decay method on it.
    for sym in &ws.index.symbols {
        if sym.kind == SymbolKind::Fn
            && sym.parent.as_deref() == Some(strukt.name.as_str())
            && matches!(sym.name.as_str(), "default" | "clear" | "reset" | "decay")
        {
            return true;
        }
    }
    // Fresh struct-literal construction anywhere outside tests:
    // `Name {` not preceded by a keyword that makes it a definition or
    // an impl header (`impl Name {`, `for Name {`).
    for occ in ws.occurrences_of(&strukt.name) {
        if !in_scope(ws, occ) || ws.is_declaration(&strukt.name, occ) {
            continue;
        }
        let f = &ws.files[occ.file];
        let Some(ti) = f.tokens.iter().position(|t| t.pos == occ.pos) else { continue };
        if !f.tokens.get(ti + 1).is_some_and(|t| t.is_punct("{")) {
            continue;
        }
        let header = ti.checked_sub(1).and_then(|p| f.tokens.get(p)).is_some_and(|t| {
            matches!(
                t.text.as_str(),
                "impl" | "for" | "struct" | "enum" | "trait" | "union" | "mod"
            )
        });
        if !header {
            return true;
        }
    }
    false
}

/// Runs the lint, appending findings to `out`.
pub fn lint(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let mut structs_with_increments: BTreeSet<String> = BTreeSet::new();
    let mut seen_fields: BTreeSet<(String, String)> = BTreeSet::new();

    for (id, sym) in ws.index.symbols.iter().enumerate() {
        if !is_counter_field(ws, id, sym) {
            continue;
        }
        // A field name is analyzed once even if several audited structs
        // share it (the flows are name-global anyway).
        let parent = sym.parent.clone().unwrap_or_default();
        if !seen_fields.insert((parent.clone(), sym.name.clone())) {
            continue;
        }
        let flow = classify_flow(ws, &sym.name);
        let written = flow.increments + flow.assigns + flow.inits;
        if flow.increments > 0 || flow.assigns > 0 {
            structs_with_increments.insert(parent.clone());
        }
        if written > 0 && flow.reads == 0 {
            out.push(Diagnostic {
                file: sym.file.clone(),
                line: sym.line,
                lint: LINT,
                message: format!(
                    "write-only counter `{}::{}`: written {written} time(s) but never \
                     read outside tests — wire it into a report/snapshot or remove it",
                    parent, sym.name
                ),
                severity: Severity::Error,
            });
        } else if written == 0 && flow.reads > 0 {
            out.push(Diagnostic {
                file: sym.file.clone(),
                line: sym.line,
                lint: LINT,
                message: format!(
                    "read-only counter `{}::{}`: read {} time(s) but never incremented or \
                     assigned — it always reports its initial value",
                    parent, sym.name, flow.reads
                ),
                severity: Severity::Error,
            });
        } else if written == 0 && flow.reads == 0 {
            out.push(Diagnostic {
                file: sym.file.clone(),
                line: sym.line,
                lint: LINT,
                message: format!(
                    "unused counter `{}::{}`: never written or read outside tests",
                    parent, sym.name
                ),
                severity: Severity::Error,
            });
        }
    }

    // Reset-path check per accumulating struct.
    for (id, sym) in ws.index.symbols.iter().enumerate() {
        if sym.kind != SymbolKind::Struct || !structs_with_increments.contains(&sym.name) {
            continue;
        }
        if !COUNTER_CRATES.contains(&ws.index.crates[id].as_str()) {
            continue;
        }
        if !has_reset_path(ws, sym) {
            out.push(Diagnostic {
                file: sym.file.clone(),
                line: sym.line,
                lint: LINT,
                message: format!(
                    "counter struct `{}` accumulates but has no reset path (no \
                     derive(Default), Default impl, clear/reset/decay method, or fresh \
                     construction) — its counters can never re-initialize per epoch",
                    sym.name
                ),
                severity: Severity::Error,
            });
        }
    }
}
