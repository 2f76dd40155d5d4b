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
//! justification file `crates/audit/hotpath.txt` (the reviewable ledger,
//! same shape as `pub_baseline.txt`). Entries are
//!
//! ```text
//! <lint> <crate> <Qualified::fn> <source> [tag] -- reason
//! ```
//!
//! where `<source>` names the effect site (`push`, `index`, `expect`,
//! `unknown:<callee>`, or `fn` for a whole-function allocation
//! boundary), and the optional `[tag]` ties an allocation exception to
//! the enumerated contract in the kernel's `# Allocation behaviour`
//! doc section — `alloc-contract-drift` keeps the two lists equal.

use crate::cfg::build_cfg;
use crate::diag::{Diagnostic, Severity};
use crate::effects::{EffectModel, EffectSet, FnInfo};
use crate::resolve::Workspace;
use crate::symbols::Token;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The effect-lint names and one-line rules, for `--help`-style listings.
pub const EFFECT_LINTS: &[(&str, &str)] = &[
    (
        "alloc-in-hot-path",
        "no allocation reachable from audit:hot-path roots without audit:allow-alloc + ledger entry",
    ),
    (
        "panic-in-hot-path",
        "every panic source / unknown callee reachable from the kernel public API is justified",
    ),
    (
        "lock-held-across-call",
        "no lock guard live across a site or call that may allocate, lock or do I/O",
    ),
    (
        "alloc-contract-drift",
        "ledger allocation tags must equal the kernel's documented allocation exceptions",
    ),
];

/// Effects that must not happen while a lock guard is live.
const GUARD_MASK: EffectSet = EffectSet(EffectSet::ALLOC.0 | EffectSet::LOCK.0 | EffectSet::IO.0);

/// The placeholder reason `--update-justify` writes for new findings.
///
/// A ledger entry still carrying this literal is a hard
/// `stub-justification` finding in every gate that consults the ledger:
/// the scaffolding flow is *stub, then hand-write the reason*, and an
/// unedited stub would otherwise silently pass as a justification.
pub const STUB_REASON: &str = "TODO: justify";

/// One justification-file entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Justification {
    /// Lint name.
    pub lint: String,
    /// Crate of the justified function.
    pub krate: String,
    /// `Parent::name`-qualified function.
    pub func: String,
    /// Effect source (`push`, `index`, `expect`, `unknown:foo`, `fn`).
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

/// The parsed justification ledger.
#[derive(Debug, Default, Clone)]
pub struct Justifications {
    /// Entries in file order.
    pub entries: Vec<Justification>,
}

impl Justifications {
    /// Parses ledger text. Lines are `lint crate fn source [tag] -- reason`;
    /// `#` comments and blank lines are skipped. Malformed lines are
    /// reported as `(line, text)` errors.
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
    pub fn load(path: &std::path::Path) -> (Justifications, Vec<(usize, String)>) {
        match std::fs::read_to_string(path) {
            Ok(text) => Justifications::parse(&text),
            Err(_) => (Justifications::default(), Vec::new()),
        }
    }

    /// Finds the entry covering `(lint, krate, func, source)`.
    pub fn covers(&self, lint: &str, krate: &str, func: &str, source: &str) -> Option<usize> {
        self.entries.iter().position(|e| {
            e.lint == lint && e.krate == krate && e.func == func && e.source == source
        })
    }

    /// Renders the full ledger, grouped by lint, with a format header.
    pub fn render(&self) -> String {
        self.render_with(
            "# Hot-path contract ledger: every entry tolerates one effect finding.\n\
             # Format: <lint> <crate> <Qualified::fn> <source> [tag] -- reason\n\
             # Maintained by `nucache-audit effects --update-justify`; reasons are hand-written.\n",
            EFFECT_LINTS,
        )
    }

    /// Renders the ledger under an arbitrary header, grouping entries by
    /// the given lint order (the concurrency ledger shares this format).
    pub fn render_with(&self, header: &str, lints: &[(&str, &str)]) -> String {
        let mut out = String::from(header);
        for (lint, _) in lints {
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

/// Runs the three effect lints plus the doc-contract tie, returning the
/// diagnostics and the full set of *required* ledger entries (existing
/// reasons preserved, new ones stubbed) for `--update-justify`.
pub fn run_effect_lints(
    ws: &Workspace,
    model: &EffectModel,
    just: &Justifications,
) -> (Vec<Diagnostic>, Vec<Justification>) {
    let mut cx =
        Cx { ws, model, just, diags: Vec::new(), required: Vec::new(), used: BTreeSet::new() };
    cx.alloc_in_hot_path();
    cx.panic_in_hot_path();
    cx.lock_held_across_call();
    cx.doc_contract_tie();
    cx.stale_entries();
    let Cx { diags, required, .. } = cx;
    (diags, required)
}

/// Shared lint-pass state.
struct Cx<'a> {
    ws: &'a Workspace,
    model: &'a EffectModel,
    just: &'a Justifications,
    diags: Vec<Diagnostic>,
    required: Vec<Justification>,
    used: BTreeSet<usize>,
}

impl Cx<'_> {
    fn file_rel(&self, f: &FnInfo) -> String {
        self.ws.files[f.file].rel.clone()
    }

    /// Records a required ledger entry (deduplicated), returning whether
    /// the current ledger already covers it. A covering entry whose
    /// reason is still the [`STUB_REASON`] placeholder is flagged as a
    /// hard finding: a stub is scaffolding, not a justification.
    fn require(&mut self, lint: &str, f: &FnInfo, source: &str) -> bool {
        let func = f.qualified();
        let covered = self.just.covers(lint, &f.crate_name, &func, source);
        if let Some(i) = covered {
            self.used.insert(i);
            if self.just.entries[i].reason == STUB_REASON {
                let line = f.span.line;
                self.diag(
                    "stub-justification",
                    f,
                    line,
                    format!(
                        "ledger entry `{lint} {} {func} {source}` still carries the \
                         `--update-justify` stub reason; write a real justification",
                        f.crate_name
                    ),
                );
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

    fn diag(&mut self, lint: &'static str, f: &FnInfo, line: usize, message: String) {
        self.diags.push(Diagnostic {
            file: self.file_rel(f),
            line,
            lint,
            message,
            severity: Severity::Error,
        });
    }

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
        let roots: Vec<usize> =
            (0..self.model.fns.len()).filter(|&i| self.model.fns[i].hot_path).collect();
        let kernel_fns = self.model.crate_fns("nucache-kernel");
        if roots.is_empty() && !kernel_fns.is_empty() {
            let f = self.model.fns[kernel_fns[0]].clone();
            self.diag(
                "alloc-in-hot-path",
                &f,
                0,
                "nucache-kernel declares no `// audit:hot-path` roots — the allocation contract is unenforced".into(),
            );
            return;
        }
        // Boundary functions: justified as a whole, not traversed into.
        let reached = self.reach(&roots, |f| f.alloc_boundary.is_none());
        let boundary_hits: Vec<usize> = {
            let mut seen = BTreeSet::new();
            let mut out = Vec::new();
            for &i in &reached {
                for call in &self.model.fns[i].calls {
                    for &j in &call.targets {
                        if self.model.fns[j].alloc_boundary.is_some() && seen.insert(j) {
                            out.push(j);
                        }
                    }
                }
            }
            out
        };
        for i in boundary_hits {
            let f = self.model.fns[i].clone();
            if !self.require(lint, &f, "fn") {
                self.diag(
                    "alloc-in-hot-path",
                    &f,
                    f.span.line,
                    format!(
                        "`{}` is an audit:allow-alloc boundary on the hot path but has no ledger entry ({} fn)",
                        f.qualified(),
                        f.crate_name
                    ),
                );
            }
        }
        for &i in &reached {
            let f = self.model.fns[i].clone();
            for site in &f.sites {
                if !site.effect.contains(EffectSet::ALLOC) {
                    continue;
                }
                let covered = self.require(lint, &f, &site.source);
                if site.allowed.is_none() {
                    self.diag(
                        "alloc-in-hot-path",
                        &f,
                        site.line,
                        format!(
                            "`{}` allocates (`{}`) on the hot path without `// audit:allow-alloc(reason)`",
                            f.qualified(),
                            site.source
                        ),
                    );
                } else if !covered {
                    self.diag(
                        "alloc-in-hot-path",
                        &f,
                        site.line,
                        format!(
                            "allocation `{}` in `{}` is annotated but missing from the hotpath ledger",
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
        let roots: Vec<usize> = (0..self.model.fns.len())
            .filter(|&i| {
                let f = &self.model.fns[i];
                f.hot_path || (f.crate_name == "nucache-kernel" && f.span.vis_pub)
            })
            .collect();
        let reached = self.reach(&roots, |_| true);
        for &i in &reached {
            let f = self.model.fns[i].clone();
            for site in &f.sites {
                if !site.effect.contains(EffectSet::PANIC) {
                    continue;
                }
                if !self.require(lint, &f, &site.source) {
                    self.diag(
                        "panic-in-hot-path",
                        &f,
                        site.line,
                        format!(
                            "`{}` may panic (`{}`) on a kernel-reachable path without a ledger entry",
                            f.qualified(),
                            site.source
                        ),
                    );
                }
            }
            for call in &f.calls {
                if !call.unknown {
                    continue;
                }
                let source = format!("unknown:{}", call.name);
                if !self.require(lint, &f, &source) {
                    self.diag(
                        "panic-in-hot-path",
                        &f,
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
    }

    /// `lock-held-across-call`: a `let`-bound lock guard must not be
    /// live across a statement whose sites/calls may allocate, lock or
    /// do I/O. Liveness is CFG-based: every statement reachable from the
    /// acquisition, cut at an explicit `drop(guard)`.
    fn lock_held_across_call(&mut self) {
        let lint = "lock-held-across-call";
        // Guard getters: one-or-two-statement workspace fns that
        // directly lock (e.g. a `fn cells(&self) -> MutexGuard<..>`
        // accessor) — calling one acquires a guard too.
        let mut getter = vec![false; self.model.fns.len()];
        for (i, f) in self.model.fns.iter().enumerate() {
            if f.direct.contains(EffectSet::LOCK) && !f.span.body.is_empty() {
                let toks = &self.ws.files[f.file].tokens;
                let cfg = build_cfg(toks, f.span.body.clone());
                let all: Vec<_> = cfg.blocks.iter().flat_map(|b| &b.stmts).collect();
                // A guard getter *returns* the guard: a tiny body whose
                // root expression is the lock chain itself — a tail
                // expression, not a `let` binding. Functions that lock,
                // use and drop the guard internally (two-statement
                // bodies starting with `let guard = …`) are not getters.
                getter[i] = all.len() <= 2
                    && all.iter().any(|s| {
                        lock_at_root(toks, &s.tokens) && !toks[s.tokens.start].is_ident("let")
                    });
            }
        }
        for fi in 0..self.model.fns.len() {
            let f = self.model.fns[fi].clone();
            if f.span.body.is_empty() || getter[fi] {
                continue;
            }
            let has_lock = f.direct.contains(EffectSet::LOCK)
                || f.calls.iter().any(|c| c.targets.iter().any(|&j| getter[j]));
            if !has_lock {
                continue;
            }
            let toks = self.ws.files[f.file].tokens.clone();
            let toks = &toks[..];
            let cfg = build_cfg(toks, f.span.body.clone());
            for (bi, block) in cfg.blocks.iter().enumerate() {
                for (si, stmt) in block.stmts.iter().enumerate() {
                    let Some(guard) = guard_binding(toks, stmt.tokens.clone(), &f, &getter) else {
                        continue;
                    };
                    // Liveness: rest of this block, plus everything
                    // reachable from its successors; cut at drop(guard).
                    let drop_pos = find_drop(toks, stmt.tokens.end, f.span.body.end, &guard);
                    let mut live: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
                    for s in &block.stmts[si + 1..] {
                        live.push((s.line, s.tokens.clone()));
                    }
                    let mut marked = vec![false; cfg.blocks.len()];
                    for &succ in &block.succs {
                        for (j, r) in cfg.reachable_from(succ).iter().enumerate() {
                            marked[j] |= r;
                        }
                    }
                    for (j, b) in cfg.blocks.iter().enumerate() {
                        if marked[j] && j != bi {
                            for s in &b.stmts {
                                live.push((s.line, s.tokens.clone()));
                            }
                        }
                    }
                    let mut flagged: BTreeSet<String> = BTreeSet::new();
                    for (line, range) in live {
                        if range.start <= stmt.tokens.start {
                            continue; // loop back-edges into earlier statements
                        }
                        if drop_pos.is_some_and(|d| range.start >= d) {
                            continue;
                        }
                        for site in &f.sites {
                            if range.contains(&site.tok)
                                && site.effect.0 & GUARD_MASK.0 != 0
                                && flagged.insert(site.source.clone())
                                && !self.require(lint, &f, &site.source)
                            {
                                self.diag(
                                    "lock-held-across-call",
                                    &f,
                                    line,
                                    format!(
                                        "`{}` holds guard `{guard}` across `{}` ({})",
                                        f.qualified(),
                                        site.source,
                                        site.effect
                                    ),
                                );
                            }
                        }
                        for call in &f.calls {
                            if !range.contains(&call.tok) {
                                continue;
                            }
                            let eff = call
                                .targets
                                .iter()
                                .fold(EffectSet::PURE, |e, &j| e.union(self.model.fns[j].effects));
                            if eff.0 & GUARD_MASK.0 != 0
                                && flagged.insert(call.name.clone())
                                && !self.require(lint, &f, &call.name)
                            {
                                self.diag(
                                    "lock-held-across-call",
                                    &f,
                                    line,
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
            .just
            .entries
            .iter()
            .filter(|e| e.lint == "alloc-in-hot-path")
            .filter_map(|e| e.tag.clone())
            .collect();
        for (tag, (file, line)) in &doc_tags {
            if !entry_tags.contains(tag) {
                self.diags.push(Diagnostic {
                    file: file.clone(),
                    line: *line,
                    lint: "alloc-contract-drift",
                    message: format!(
                        "allocation exception `{tag}` is documented but no [{tag}] entry exists in the hotpath ledger"
                    ),
                    severity: Severity::Error,
                });
            }
        }
        if !doc_tags.is_empty() {
            for tag in &entry_tags {
                if !doc_tags.contains_key(tag) {
                    self.diags.push(Diagnostic {
                        file: "crates/audit/hotpath.txt".to_string(),
                        line: 0,
                        lint: "alloc-contract-drift",
                        message: format!(
                            "hotpath ledger tag [{tag}] is not documented in the kernel `# Allocation behaviour` contract"
                        ),
                        severity: Severity::Error,
                    });
                }
            }
        }
    }

    /// Ledger entries no finding required are stale and must be pruned —
    /// otherwise the ledger silently outlives the code it excused.
    fn stale_entries(&mut self) {
        for (i, e) in self.just.entries.iter().enumerate() {
            if !self.used.contains(&i) {
                self.diags.push(Diagnostic {
                    file: "crates/audit/hotpath.txt".to_string(),
                    line: 0,
                    lint: "alloc-in-hot-path",
                    message: format!(
                        "stale ledger entry `{}` — no current finding requires it",
                        e.render()
                    ),
                    severity: Severity::Error,
                });
            }
        }
    }
}

/// Token positions in `[start, end)` that sit at nesting depth 0 —
/// i.e. on the root expression chain, not inside call arguments, block
/// expressions or struct literals. `start` should point just past a
/// top-level `=` (or at the expression start).
fn root_depth_zero(toks: &[Token], start: usize, end: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    for (i, tok) in toks.iter().enumerate().take(end).skip(start) {
        match tok.text.as_str() {
            "(" | "[" | "{" => {
                if depth == 0 {
                    out.push(i);
                }
                depth += 1;
            }
            ")" | "]" | "}" => depth -= 1,
            _ => {
                if depth == 0 {
                    out.push(i);
                }
            }
        }
    }
    out
}

/// Position just past the first top-level `=` of `stmt`, if any.
fn after_eq(toks: &[Token], stmt: &std::ops::Range<usize>) -> Option<usize> {
    let mut depth = 0i32;
    for i in stmt.clone() {
        match toks[i].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "=" if depth == 0 => return Some(i + 1),
            _ => {}
        }
    }
    None
}

/// Whether the root expression of `stmt` (past any `let NAME =`) is a
/// lock-acquisition chain: `.lock(`/`.try_lock(` at nesting depth 0, so
/// `mem::take(&mut *slot().lock()…)` — a guard temporary consumed inside
/// the statement — does not count.
fn lock_at_root(toks: &[Token], stmt: &std::ops::Range<usize>) -> bool {
    let start = after_eq(toks, stmt).unwrap_or(stmt.start);
    root_depth_zero(toks, start, stmt.end).into_iter().any(|i| {
        i + 2 < stmt.end
            && toks[i].is_punct(".")
            && (toks[i + 1].is_ident("lock") || toks[i + 1].is_ident("try_lock"))
            && toks[i + 2].is_punct("(")
    })
}

/// If `stmt` is `let [mut] NAME = …` whose root expression acquires a
/// lock (directly or via a guard-getter call), returns `NAME`.
fn guard_binding(
    toks: &[Token],
    stmt: std::ops::Range<usize>,
    f: &FnInfo,
    getter: &[bool],
) -> Option<String> {
    let mut it = stmt.clone();
    let first = it.next()?;
    if !toks[first].is_ident("let") {
        return None;
    }
    let mut name = None;
    for i in it {
        if toks[i].is_ident("mut") {
            continue;
        }
        if toks[i].kind == crate::symbols::TokKind::Ident {
            name = Some(toks[i].text.clone());
        }
        break;
    }
    let name = name?;
    if name == "_" {
        return None;
    }
    let start = after_eq(toks, &stmt)?;
    let root = root_depth_zero(toks, start, stmt.end);
    let direct = lock_at_root(toks, &stmt);
    let via_getter =
        f.calls.iter().any(|c| root.contains(&c.tok) && c.targets.iter().any(|&j| getter[j]));
    (direct || via_getter).then_some(name)
}

/// Finds `drop(NAME)` in `[from, to)`, returning its token position.
fn find_drop(toks: &[Token], from: usize, to: usize, name: &str) -> Option<usize> {
    (from..to.saturating_sub(2)).find(|&i| {
        toks[i].is_ident("drop") && toks[i + 1].is_punct("(") && toks[i + 2].is_ident(name)
    })
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
    fn ledger_roundtrip() {
        let text = "# comment\n\
                    alloc-in-hot-path nucache-kernel Kernel::run fn [epoch-scratch] -- bounded per epoch\n\
                    panic-in-hot-path nucache-kernel Kernel::get index -- set index is masked\n";
        let (j, errs) = Justifications::parse(text);
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(j.entries.len(), 2);
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
        let (_, errs) = Justifications::parse("no separator here\nalloc a b -- too few fields\n");
        assert_eq!(errs.len(), 2);
    }

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
