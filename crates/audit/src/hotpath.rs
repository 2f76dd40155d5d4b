//! Hot-path contract lints over the effect model.
//!
//! Four lints turn the kernel's documented contracts into hard gates:
//!
//! | lint | contract |
//! |------|----------|
//! | `alloc-in-hot-path` | no allocation reachable from an `// audit:hot-path` root except sites/functions carrying `// audit:allow-alloc(reason)` |
//! | `panic-in-hot-path` | every panic source (and unresolved callee) reachable from the kernel public API is justified |
//! | `lock-held-across-call` | no lock guard live across a call or site that may allocate, lock or do I/O |
//! | `alloc-contract-drift` | the `[tag]`s on `alloc-in-hot-path` ledger entries and the tags the kernel's `# Allocation behaviour` doc section enumerates are the same set |
//!
//! Every tolerated finding needs *two* marks: a machine-checkable source
//! annotation where the contract demands one, and an entry in the
//! [ledger](crate::ledger) `crates/audit/ledger.txt`. The optional
//! `[tag]` on an `alloc-in-hot-path` entry ties the exception to the
//! enumerated contract in the kernel's `# Allocation behaviour` doc
//! section.

use crate::cfg::build_cfg;
use crate::diag::{Diagnostic, Severity};
use crate::effects::{EffectModel, EffectSet, FnInfo};
use crate::ledger::{Ledger, LEDGER_REL};
use crate::locks::{guard_binding, is_guard_getter, live_stmts};
use crate::resolve::Workspace;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Effects that must not happen while a lock guard is live.
const GUARD_MASK: EffectSet = EffectSet(EffectSet::ALLOC.0 | EffectSet::LOCK.0 | EffectSet::IO.0);

/// Runs the three effect lints plus the doc-contract tie, checking
/// every finding against `ledger`.
pub(crate) fn run_effect_lints(ws: &Workspace, model: &EffectModel, ledger: &mut Ledger<'_>) {
    let mut cx = Cx { ws, model, ledger };
    cx.alloc_in_hot_path();
    cx.panic_in_hot_path();
    cx.lock_held_across_call();
    cx.doc_contract_tie();
}

/// Shared lint-pass state.
struct Cx<'a, 'l> {
    ws: &'a Workspace,
    model: &'a EffectModel,
    ledger: &'a mut Ledger<'l>,
}

impl Cx<'_, '_> {
    /// BFS over call targets from `roots`; `enter` decides whether a
    /// function's body (and out-edges) are traversed.
    fn reach(&self, roots: &[usize], enter: impl Fn(&FnInfo) -> bool) -> Vec<usize> {
        let mut seen = vec![false; self.model.fns.len()];
        let mut queue: VecDeque<usize> = roots.iter().copied().collect();
        let mut order = Vec::new();
        while let Some(i) = queue.pop_front() {
            if std::mem::replace(&mut seen[i], true) {
                continue;
            }
            let f = &self.model.fns[i];
            if !enter(f) {
                continue;
            }
            order.push(i);
            for call in &f.calls {
                for &j in &call.targets {
                    if !seen[j] {
                        queue.push_back(j);
                    }
                }
            }
        }
        order
    }

    /// `alloc-in-hot-path`: every allocation reachable from a hot-path
    /// root needs both an `audit:allow-alloc` annotation and a ledger
    /// entry; function-level boundaries stop traversal but must be in
    /// the ledger themselves.
    fn alloc_in_hot_path(&mut self) {
        let lint = "alloc-in-hot-path";
        let model = self.model;
        let roots: Vec<usize> = (0..model.fns.len()).filter(|&i| model.fns[i].hot_path).collect();
        let kernel_fns = model.crate_fns("nucache-kernel");
        if roots.is_empty() && !kernel_fns.is_empty() {
            self.ledger.report(
                lint,
                &model.fns[kernel_fns[0]],
                0,
                "nucache-kernel declares no `// audit:hot-path` roots — the allocation contract is unenforced".into(),
            );
            return;
        }
        // Boundary functions: justified as a whole, not traversed into.
        let reached = self.reach(&roots, |f| f.alloc_boundary.is_none());
        let mut boundaries = BTreeSet::new();
        for &i in &reached {
            for call in &model.fns[i].calls {
                for &j in &call.targets {
                    let f = &model.fns[j];
                    if f.alloc_boundary.is_some() && boundaries.insert(j) {
                        self.ledger.check(
                            lint,
                            f,
                            "fn",
                            f.span.line,
                            format!(
                                "`{}` is an audit:allow-alloc boundary on the hot path but has no ledger entry ({} fn)",
                                f.qualified(),
                                f.crate_name
                            ),
                        );
                    }
                }
            }
        }
        for &i in &reached {
            let f = &model.fns[i];
            for site in &f.sites {
                if !site.effect.contains(EffectSet::ALLOC) {
                    continue;
                }
                let covered = self.ledger.require(lint, f, &site.source);
                if site.allowed.is_none() {
                    self.ledger.report(
                        lint,
                        f,
                        site.line,
                        format!(
                            "`{}` allocates (`{}`) on the hot path without `// audit:allow-alloc(reason)`",
                            f.qualified(),
                            site.source
                        ),
                    );
                } else if !covered {
                    self.ledger.report(
                        lint,
                        f,
                        site.line,
                        format!(
                            "allocation `{}` in `{}` is annotated but missing from the ledger",
                            site.source,
                            f.qualified()
                        ),
                    );
                }
            }
        }
    }

    /// `panic-in-hot-path`: panic sources and unknown callees reachable
    /// from the kernel public API (or any hot-path root) need entries.
    fn panic_in_hot_path(&mut self) {
        let lint = "panic-in-hot-path";
        let model = self.model;
        let roots: Vec<usize> = (0..model.fns.len())
            .filter(|&i| {
                let f = &model.fns[i];
                f.hot_path || (f.crate_name == "nucache-kernel" && f.span.vis_pub)
            })
            .collect();
        for i in self.reach(&roots, |_| true) {
            let f = &model.fns[i];
            for site in f.sites.iter().filter(|s| s.effect.contains(EffectSet::PANIC)) {
                self.ledger.check(
                    lint,
                    f,
                    &site.source,
                    site.line,
                    format!(
                        "`{}` may panic (`{}`) on a kernel-reachable path without a ledger entry",
                        f.qualified(),
                        site.source
                    ),
                );
            }
            for call in f.calls.iter().filter(|c| c.unknown) {
                self.ledger.check(
                    lint,
                    f,
                    &format!("unknown:{}", call.name),
                    call.line,
                    format!(
                        "`{}` calls `{}`, which the effect analysis cannot resolve — justify or extend the intrinsic table",
                        f.qualified(),
                        call.name
                    ),
                );
            }
        }
    }

    /// `lock-held-across-call`: a `let`-bound lock guard must not be
    /// live across a statement whose sites/calls may allocate, lock or
    /// do I/O (see [`live_stmts`] for the liveness walk).
    fn lock_held_across_call(&mut self) {
        let lint = "lock-held-across-call";
        let model = self.model;
        let getter: Vec<bool> = model.fns.iter().map(|f| is_guard_getter(self.ws, f)).collect();
        for (fi, f) in model.fns.iter().enumerate() {
            if f.span.body.is_empty() || getter[fi] {
                continue;
            }
            let has_lock = f.direct.contains(EffectSet::LOCK)
                || f.calls.iter().any(|c| c.targets.iter().any(|&j| getter[j]));
            if !has_lock {
                continue;
            }
            let toks = &self.ws.files[f.file].tokens;
            let cfg = build_cfg(toks, f.span.body.clone());
            for (bi, block) in cfg.blocks.iter().enumerate() {
                for (si, stmt) in block.stmts.iter().enumerate() {
                    let Some(guard) = guard_binding(toks, &stmt.tokens, f, &getter) else {
                        continue;
                    };
                    let mut flagged: BTreeSet<String> = BTreeSet::new();
                    for live in live_stmts(&cfg, toks, bi, si, &guard, f.span.body.end) {
                        for site in &f.sites {
                            if live.tokens.contains(&site.tok)
                                && site.effect.0 & GUARD_MASK.0 != 0
                                && flagged.insert(site.source.clone())
                            {
                                self.ledger.check(
                                    lint,
                                    f,
                                    &site.source,
                                    live.line,
                                    format!(
                                        "`{}` holds guard `{guard}` across `{}` ({})",
                                        f.qualified(),
                                        site.source,
                                        site.effect
                                    ),
                                );
                            }
                        }
                        for call in f.calls.iter().filter(|c| live.tokens.contains(&c.tok)) {
                            let eff = call
                                .targets
                                .iter()
                                .fold(EffectSet::PURE, |e, &j| e.union(model.fns[j].effects));
                            if eff.0 & GUARD_MASK.0 != 0 && flagged.insert(call.name.clone()) {
                                self.ledger.check(
                                    lint,
                                    f,
                                    &call.name,
                                    live.line,
                                    format!(
                                        "`{}` holds guard `{guard}` across call to `{}` ({})",
                                        f.qualified(),
                                        call.name,
                                        eff
                                    ),
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// `alloc-contract-drift` tie: the backticked tags enumerated in the
    /// kernel's `# Allocation behaviour` doc section and the `[tag]`s on
    /// `alloc-in-hot-path` ledger entries must be the same set.
    fn doc_contract_tie(&mut self) {
        let mut doc_tags: BTreeMap<String, (String, usize)> = BTreeMap::new();
        for fm in &self.ws.files {
            if fm.class.is_vendor {
                continue;
            }
            for (tag, line) in allocation_doc_tags(&fm.raw) {
                doc_tags.entry(tag).or_insert((fm.rel.clone(), line));
            }
        }
        let entry_tags: BTreeSet<String> = self
            .ledger
            .entries()
            .iter()
            .filter(|e| e.lint == "alloc-in-hot-path")
            .filter_map(|e| e.tag.clone())
            .collect();
        let drift = |file: &str, line: usize, message: String| Diagnostic {
            file: file.to_string(),
            line,
            lint: "alloc-contract-drift",
            message,
            severity: Severity::Error,
        };
        for (tag, (file, line)) in &doc_tags {
            if !entry_tags.contains(tag) {
                self.ledger.push(drift(
                    file,
                    *line,
                    format!(
                        "allocation exception `{tag}` is documented but no [{tag}] entry exists in the ledger"
                    ),
                ));
            }
        }
        if !doc_tags.is_empty() {
            for tag in entry_tags.iter().filter(|t| !doc_tags.contains_key(*t)) {
                self.ledger.push(drift(
                    LEDGER_REL,
                    0,
                    format!(
                        "ledger tag [{tag}] is not documented in the kernel `# Allocation behaviour` contract"
                    ),
                ));
            }
        }
    }
}

/// Extracts backticked kebab-case tags from `# Allocation behaviour`
/// doc-comment sections of `raw` source, with the line each appears on.
fn allocation_doc_tags(raw: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut in_section = false;
    for (i, line) in raw.lines().enumerate() {
        let t = line.trim_start();
        let doc = t.strip_prefix("///").or_else(|| t.strip_prefix("//!")).map(str::trim_start);
        let Some(body) = doc else {
            in_section = false;
            continue;
        };
        if body.starts_with("# ") {
            in_section = body == "# Allocation behaviour";
            continue;
        }
        if !in_section {
            continue;
        }
        let mut rest = body;
        while let Some(start) = rest.find('`') {
            let tail = &rest[start + 1..];
            let Some(end) = tail.find('`') else { break };
            let candidate = &tail[..end];
            if candidate.contains('-')
                && !candidate.is_empty()
                && candidate
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
            {
                out.push((candidate.to_string(), i + 1));
            }
            rest = &tail[end + 1..];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_tags_extracted_from_allocation_section() {
        let raw = "\
/// Long prose.\n\
///\n\
/// # Allocation behaviour\n\
///\n\
/// * `epoch-selection-scratch` — selection clones histograms.\n\
/// * `monitor-histogram-growth` — lazy per-class histograms.\n\
/// * not-a-`Tag` and `has spaces` are ignored.\n\
///\n\
/// # Panics\n\
///\n\
/// `some-other-thing` outside the section is ignored.\n\
fn f() {}\n";
        let tags: Vec<String> = allocation_doc_tags(raw).into_iter().map(|(t, _)| t).collect();
        assert_eq!(tags, vec!["epoch-selection-scratch", "monitor-histogram-growth"]);
    }
}
