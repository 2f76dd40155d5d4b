//! Effect inference over the workspace call graph.
//!
//! Each function body is scanned for *effect sites* — token patterns a
//! curated intrinsic table maps to one of four effects — and *call
//! sites*, which are resolved against the workspace symbol universe by
//! name (qualified calls additionally match the receiver type against
//! the defining `impl`). A fixpoint then propagates callee effects to
//! callers, so `Kernel::get` inherits `allocates` from anything its
//! transitive callees do.
//!
//! The lattice is a four-bit power set plus an `unknown` bit:
//!
//! | effect  | seeded by |
//! |---------|-----------|
//! | `alloc` | `push`, `insert`, `collect`, `or_insert`, `to_vec`, `vec!`, `format!`, … |
//! | `panic` | `unwrap`, `expect`, indexing `x[i]`, `panic!`, `assert!`, … |
//! | `lock`  | `.lock()`, `.try_lock()` |
//! | `io`    | `println!`, `write_all`, `flush`, … |
//!
//! Unknown callees (names that resolve to no workspace function and no
//! intrinsic) set the `unknown` bit; the hot-path lints decide how to
//! surface that conservatively. Resolution is name-based and therefore
//! over-approximate: a call edge is kept only when the callee's crate is
//! a declared dependency of the caller's crate (or the same crate), which
//! prunes most cross-crate name collisions without pretending to do type
//! inference.

use crate::cfg::{fn_spans, FnSpan};
use crate::lexer::AnnotationKind;
use crate::resolve::Workspace;
use crate::symbols::{TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A set of inferred effects, as a bitset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EffectSet(pub u8);

impl EffectSet {
    /// Heap allocation (or container growth that may reallocate).
    pub const ALLOC: EffectSet = EffectSet(1);
    /// May panic (unwrap/expect, indexing, assert/panic macros).
    pub const PANIC: EffectSet = EffectSet(2);
    /// Acquires a lock.
    pub const LOCK: EffectSet = EffectSet(4);
    /// Performs I/O.
    pub const IO: EffectSet = EffectSet(8);
    /// Calls something the analysis cannot resolve.
    pub const UNKNOWN: EffectSet = EffectSet(16);
    /// The empty (pure) set.
    pub const PURE: EffectSet = EffectSet(0);

    /// Set union.
    #[must_use]
    pub const fn union(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 | other.0)
    }

    /// Whether every effect in `other` is present in `self`.
    pub const fn contains(self, other: EffectSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no effect is present.
    pub const fn is_pure(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for EffectSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pure() {
            return write!(f, "pure");
        }
        let mut first = true;
        for (bit, name) in [
            (EffectSet::ALLOC, "alloc"),
            (EffectSet::PANIC, "panic"),
            (EffectSet::LOCK, "lock"),
            (EffectSet::IO, "io"),
            (EffectSet::UNKNOWN, "unknown"),
        ] {
            if self.contains(bit) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        Ok(())
    }
}

/// Methods/functions whose call is itself an allocation (or potential
/// container growth, which may reallocate).
const ALLOC_NAMES: &[&str] = &[
    "push",
    "push_str",
    "push_back",
    "push_front",
    "insert",
    "append",
    "extend",
    "extend_from_slice",
    "reserve",
    "resize",
    "resize_with",
    "with_capacity",
    "to_vec",
    "to_string",
    "to_owned",
    "collect",
    "sort",
    "sort_by",
    "sort_by_key",
    "or_insert",
    "or_insert_with",
    "or_default",
    "split_off",
    "repeat",
    "join",
    "concat",
    "clone",
    "cloned",
    "boxed",
];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Methods whose call may panic.
const PANIC_NAMES: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Macros that may panic. `debug_assert*` is deliberately absent: it
/// compiles out of release builds, which is what the hot-path contract
/// governs.
const PANIC_MACROS: &[&str] =
    &["panic", "assert", "assert_eq", "assert_ne", "unreachable", "todo", "unimplemented"];

/// Lock-acquiring methods.
const LOCK_NAMES: &[&str] = &["lock", "try_lock", "read", "write"];

/// Lock-acquiring methods that are unambiguous even without a receiver
/// type (`read`/`write` collide with I/O and slices too often to seed
/// from name alone).
const LOCK_NAMES_DIRECT: &[&str] = &["lock", "try_lock"];

/// I/O macros and methods.
const IO_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "write", "writeln"];
const IO_NAMES: &[&str] = &["write_all", "write_fmt", "flush", "read_to_string", "read_line"];

/// Qualified calls with known effects that name-based resolution would
/// otherwise miss (no workspace `impl` defines them).
const QUALIFIED_ALLOC: &[(&str, &str)] =
    &[("Box", "new"), ("String", "from"), ("Vec", "from"), ("Arc", "new"), ("Rc", "new")];

/// Qualified calls that look effectful by name but are not: `Arc::clone`
/// is a refcount bump, not a deep clone.
const QUALIFIED_BENIGN: &[(&str, &str)] = &[("Arc", "clone"), ("Rc", "clone"), ("Instant", "now")];

/// Unqualified/receiver calls known effect-free (or whose effects are
/// bounded to the callee's own stack): the standard-library surface this
/// workspace actually uses. Anything not listed and not resolvable
/// becomes `unknown`, so this table errs small and grows on evidence.
const BENIGN_NAMES: &[&str] = &[
    // Option/Result plumbing.
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "as_ref",
    "as_mut",
    "as_deref",
    "ok",
    "err",
    "ok_or",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "map_or",
    "map_err",
    "and_then",
    "or_else",
    "take",
    "replace",
    "get_or_insert_with",
    "is_some_and",
    "is_none_or",
    "zip",
    // Iteration (lazy adapters allocate nothing; terminal folds are
    // stack-bounded).
    "iter",
    "iter_mut",
    "into_iter",
    "chars",
    "bytes",
    "lines",
    "split",
    "splitn",
    "split_once",
    "split_whitespace",
    "windows",
    "chunks",
    "enumerate",
    "rev",
    "skip",
    "skip_while",
    "step_by",
    "take_while",
    "chain",
    "flat_map",
    "flatten",
    "filter",
    "filter_map",
    "map",
    "fold",
    "for_each",
    "position",
    "find",
    "find_map",
    "any",
    "all",
    "count",
    "sum",
    "product",
    "max",
    "min",
    "max_by",
    "max_by_key",
    "min_by",
    "min_by_key",
    "last",
    "next",
    "next_back",
    "nth",
    "peekable",
    "peek",
    "by_ref",
    "copied",
    "values",
    "values_mut",
    "keys",
    "range",
    "contains",
    "contains_key",
    "starts_with",
    "ends_with",
    // Container reads / in-place edits that never grow.
    "len",
    "is_empty",
    "get",
    "get_mut",
    "first",
    "first_mut",
    "last_mut",
    "binary_search",
    "binary_search_by",
    "fill",
    "swap",
    "swap_remove",
    "rotate_left",
    "rotate_right",
    "retain",
    "truncate",
    "clear",
    "pop",
    "pop_front",
    "pop_back",
    "remove",
    "drain",
    "dedup",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "reverse",
    "entry",
    "as_slice",
    "as_str",
    "as_bytes",
    "trim",
    "trim_start",
    "trim_end",
    "trim_matches",
    "trim_start_matches",
    "trim_end_matches",
    "strip_prefix",
    "strip_suffix",
    "eq_ignore_ascii_case",
    "char_indices",
    "parse",
    "floor",
    "ceil",
    "round",
    "sqrt",
    "abs",
    "ln",
    "log2",
    "exp",
    "powi",
    "powf",
    "mul_add",
    "hypot",
    "to_bits",
    "from_bits",
    "is_finite",
    "is_nan",
    "clamp",
    // Arithmetic helpers.
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_div",
    "overflowing_add",
    "leading_zeros",
    "trailing_zeros",
    "count_ones",
    "pow",
    "next_power_of_two",
    "is_power_of_two",
    "ilog2",
    "signum",
    "rem_euclid",
    "div_euclid",
    "min_assign",
    "cmp",
    "partial_cmp",
    "then",
    "then_with",
    "then_some",
    "eq",
    "ne",
    "hash",
    "finish",
    "kind",
    "fract",
    // Conversions (From/Into/TryFrom between scalar types).
    "from",
    "into",
    "try_into",
    "try_from",
    "from_str",
    "as_u64",
    "as_usize",
    "is_char_boundary",
    "is_alphabetic",
    "is_alphanumeric",
    "is_ascii_digit",
    "is_ascii_alphanumeric",
    "is_whitespace",
    "is_uppercase",
    "is_lowercase",
    "to_ascii_lowercase",
    "to_ascii_uppercase",
    "to_digit",
    // Misc std surface.
    "default",
    "new",
    "drop",
    "matches",
    "min_stack",
    "borrow",
    "borrow_mut",
    "deref",
    "as_nanos",
    "as_micros",
    "as_millis",
    "as_secs",
    "as_secs_f64",
    "elapsed",
    "duration_since",
    "subsec_nanos",
    "id",
    "name",
    "field",
    "finish_non_exhaustive",
    "fmt",
    "size_hint",
];

/// Names that are statement keywords, not calls, when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "as", "in", "move", "ref", "mut",
    "else", "let", "impl", "where", "dyn", "break", "continue", "unsafe", "await", "box", "pub",
    "use", "crate", "super", "self", "Self",
];

/// One intrinsic effect occurrence inside a function body.
#[derive(Debug, Clone)]
pub struct EffectSite {
    /// The effect this site contributes.
    pub effect: EffectSet,
    /// Human-readable source (`Vec::push`, `index`, `panic!`, …).
    pub source: String,
    /// 1-indexed source line.
    pub line: usize,
    /// Token index of the site (for CFG statement lookup).
    pub tok: usize,
    /// `// audit:allow-alloc(reason)` covering this site, if any.
    pub allowed: Option<String>,
}

/// One call to a (possibly) workspace-defined function.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// `Type::` qualifier, if the call was written qualified.
    pub qualifier: Option<String>,
    /// 1-indexed source line.
    pub line: usize,
    /// Token index of the callee name.
    pub tok: usize,
    /// The receiver is literally `self` (`self.method(..)`).
    pub self_recv: bool,
    /// Indices into [`EffectModel::fns`] this call may target.
    pub targets: Vec<usize>,
    /// No workspace target and no intrinsic classification.
    pub unknown: bool,
}

/// Everything the analysis knows about one workspace function.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Index into `Workspace::files`.
    pub file: usize,
    /// Declaration span (name, parent type, body token range).
    pub span: FnSpan,
    /// Crate the function lives in.
    pub crate_name: String,
    /// Effects from intrinsic sites in this body alone.
    pub direct: EffectSet,
    /// The intrinsic sites themselves.
    pub sites: Vec<EffectSite>,
    /// Calls out of this body.
    pub calls: Vec<CallSite>,
    /// Fixpoint effects (direct ∪ every reachable callee's effects).
    pub effects: EffectSet,
    /// Declared `// audit:hot-path`.
    pub hot_path: bool,
    /// Declared `// audit:allow-alloc(reason)` at function level: the
    /// hot-path traversal treats the whole body as a justified
    /// allocation boundary.
    pub alloc_boundary: Option<String>,
}

impl FnInfo {
    /// `Parent::name`-qualified display name.
    pub fn qualified(&self) -> String {
        self.span.qualified()
    }
}

/// The workspace-wide effect model: per-function effects plus the call
/// graph they were propagated over.
#[derive(Debug, Default)]
pub struct EffectModel {
    /// Every analyzed function (vendor and test code excluded), in file
    /// order then body order.
    pub fns: Vec<FnInfo>,
    /// Function name → indices into `fns`.
    pub by_name: BTreeMap<String, Vec<usize>>,
}

impl EffectModel {
    /// Builds the model: extract sites and calls per function, resolve
    /// call targets, then run the effect fixpoint.
    pub fn build(ws: &Workspace) -> EffectModel {
        let mut fns = Vec::new();
        for (file_id, fm) in ws.files.iter().enumerate() {
            if fm.class.is_vendor || fm.class.is_test_dir {
                continue;
            }
            for span in fn_spans(&fm.tokens) {
                if fm.scanned.is_test_code(span.line) {
                    continue;
                }
                let hot_path =
                    fm.scanned.annotation_above(AnnotationKind::HotPath, span.line, 3).is_some();
                let alloc_boundary = fm
                    .scanned
                    .annotation_above(AnnotationKind::AllowAlloc, span.line, 3)
                    .map(|a| a.reason.clone());
                let mut info = FnInfo {
                    file: file_id,
                    span,
                    crate_name: fm.class.crate_name.clone(),
                    direct: EffectSet::PURE,
                    sites: Vec::new(),
                    calls: Vec::new(),
                    effects: EffectSet::PURE,
                    hot_path,
                    alloc_boundary,
                };
                extract_body(&fm.tokens, &fm.scanned, &mut info);
                fns.push(info);
            }
        }

        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.span.name.clone()).or_default().push(i);
        }

        // Resolve call targets. A name-match edge is kept when the
        // callee's crate is the caller's own or a declared dependency
        // (missing manifests — fixture mini-workspaces — keep every
        // edge, conservatively).
        for i in 0..fns.len() {
            let caller_crate = fns[i].crate_name.clone();
            let deps = ws.manifests.by_crate.get(&caller_crate).map(|m| m.deps.clone());
            let caller_parent = fns[i].span.parent.clone();
            let mut calls = std::mem::take(&mut fns[i].calls);
            for call in &mut calls {
                // `Self::helper(..)` names the caller's own impl type.
                let qualifier = match call.qualifier.as_deref() {
                    Some("Self") => caller_parent.clone(),
                    q => q.map(str::to_string),
                };
                let candidates = by_name.get(&call.name).cloned().unwrap_or_default();
                for j in candidates {
                    let callee = &fns[j];
                    if let Some(q) = &qualifier {
                        if callee.span.parent.as_deref() != Some(q.as_str()) {
                            continue;
                        }
                    }
                    let dep_ok = callee.crate_name == caller_crate
                        || deps.as_ref().is_none_or(|d| d.contains(&callee.crate_name));
                    if dep_ok {
                        call.targets.push(j);
                    }
                }
                // `self.method(..)` is a call on the caller's own type:
                // when a same-type method matches, drop the cross-type
                // name collisions.
                if call.self_recv {
                    let own: Vec<usize> = call
                        .targets
                        .iter()
                        .copied()
                        .filter(|&j| fns[j].span.parent == caller_parent)
                        .collect();
                    if !own.is_empty() {
                        call.targets = own;
                    }
                }
                if call.targets.is_empty() && !benign_unresolved(call) {
                    call.unknown = true;
                }
            }
            fns[i].calls = calls;
        }

        // Effect fixpoint over the (cyclic) call graph.
        for f in &mut fns {
            f.effects = f.direct;
            if f.calls.iter().any(|c| c.unknown) {
                f.effects = f.effects.union(EffectSet::UNKNOWN);
            }
        }
        loop {
            let mut changed = false;
            for i in 0..fns.len() {
                let mut eff = fns[i].effects;
                for call in &fns[i].calls {
                    for &j in &call.targets {
                        eff = eff.union(fns[j].effects);
                    }
                }
                if eff != fns[i].effects {
                    fns[i].effects = eff;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        EffectModel { fns, by_name }
    }

    /// Functions of `crate_name`, as indices.
    pub fn crate_fns(&self, crate_name: &str) -> Vec<usize> {
        (0..self.fns.len()).filter(|&i| self.fns[i].crate_name == crate_name).collect()
    }
}

/// Whether an unresolved call is still known-benign (constructors and
/// curated std surface).
fn benign_unresolved(call: &CallSite) -> bool {
    if let Some(q) = &call.qualifier {
        if QUALIFIED_BENIGN.iter().any(|(t, n)| t == q && *n == call.name) {
            return true;
        }
    }
    if call.name.chars().next().is_some_and(char::is_uppercase) {
        // Constructors: moving values into place, no effect of their own.
        return true;
    }
    BENIGN_NAMES.contains(&call.name.as_str())
}

/// Scans one function body for intrinsic effect sites and call sites.
fn extract_body(toks: &[Token], scanned: &crate::lexer::ScannedFile, info: &mut FnInfo) {
    let body = info.span.body.clone();
    // Let-bound closures (`let f = |..|` / `let f = move |..|`): their
    // bodies are scanned inline like any other body tokens, so a call
    // through the binding adds no effects — resolving it by name would
    // only produce a bogus `unknown` edge.
    let mut local_closures: BTreeSet<String> = BTreeSet::new();
    for w in body.clone() {
        if !toks[w].is_ident("let") {
            continue;
        }
        let mut j = w + 1;
        if j < body.end && toks[j].is_ident("mut") {
            j += 1;
        }
        if j + 1 < body.end && toks[j].kind == TokKind::Ident && toks[j + 1].is_punct("=") {
            let mut k = j + 2;
            if k < body.end && toks[k].is_ident("move") {
                k += 1;
            }
            if k < body.end && toks[k].is_punct("|") {
                local_closures.insert(toks[j].text.clone());
            }
        }
    }
    let mut i = body.start;
    while i < body.end {
        let t = &toks[i];
        // Attributes (`#[..]`, `#![..]`) are not code: the `expect` in
        // `#[expect(clippy::..)]` names a lint, it calls nothing.
        if t.is_punct("#") {
            let open = if i + 1 < body.end && toks[i + 1].is_punct("!") { i + 2 } else { i + 1 };
            if open < body.end && toks[open].is_punct("[") {
                i = crate::symbols::skip_balanced(toks, open);
                continue;
            }
        }
        // Indexing: `expr[..]` — `[` preceded by an ident, `)` or `]`.
        // Attribute brackets (`#[..]`), slice types (`&[u8]`) and array
        // literals (`= [`) all fail the predecessor test.
        if t.is_punct("[") && i > body.start {
            let p = &toks[i - 1];
            let after_value = (p.kind == TokKind::Ident
                && !CALL_KEYWORDS.contains(&p.text.as_str()))
                || p.is_punct(")")
                || p.is_punct("]");
            if after_value {
                push_site(info, scanned, EffectSet::PANIC, "index", t.line, i);
            }
            i += 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // Macro invocation: `name!(..)` / `name![..]` / `name!{..}`.
        if i + 1 < body.end && toks[i + 1].is_punct("!") {
            let name = t.text.as_str();
            let (effect, label) = if ALLOC_MACROS.contains(&name) {
                (EffectSet::ALLOC, format!("{name}!"))
            } else if PANIC_MACROS.contains(&name) {
                (EffectSet::PANIC, format!("{name}!"))
            } else if IO_MACROS.contains(&name) {
                (EffectSet::IO, format!("{name}!"))
            } else {
                (EffectSet::PURE, String::new())
            };
            if !effect.is_pure() {
                push_site(info, scanned, effect, &label, t.line, i);
            }
            i += 2;
            continue;
        }
        // Call: `name(..)`.
        if i + 1 < body.end
            && toks[i + 1].is_punct("(")
            && !CALL_KEYWORDS.contains(&t.text.as_str())
        {
            let name = t.text.clone();
            let after_dot = i > body.start && toks[i - 1].is_punct(".");
            if !after_dot && local_closures.contains(name.as_str()) {
                i += 1;
                continue;
            }
            let self_recv = after_dot && i >= 2 && toks[i - 2].is_ident("self");
            let qualifier = (!after_dot)
                .then(|| {
                    (i >= body.start + 2
                        && toks[i - 1].is_punct("::")
                        && toks[i - 2].kind == TokKind::Ident)
                        .then(|| toks[i - 2].text.clone())
                })
                .flatten();
            classify_call(info, scanned, name, qualifier, after_dot, self_recv, t.line, i);
            i += 1;
            continue;
        }
        i += 1;
    }
}

/// Records a call token as either an intrinsic effect site, a benign
/// no-op, or a call site for later resolution.
#[allow(clippy::too_many_arguments)]
fn classify_call(
    info: &mut FnInfo,
    scanned: &crate::lexer::ScannedFile,
    name: String,
    qualifier: Option<String>,
    after_dot: bool,
    self_recv: bool,
    line: usize,
    tok: usize,
) {
    let n = name.as_str();
    // `Some(..)`, `JsonValue::Obj(..)`, `Self::Variant(..)`: constructors
    // move values into place and have no effect of their own.
    if n.chars().next().is_some_and(char::is_uppercase)
        && !QUALIFIED_ALLOC.iter().any(|(t, m)| Some(*t) == qualifier.as_deref() && *m == n)
    {
        return;
    }
    if let Some(q) = &qualifier {
        if QUALIFIED_BENIGN.iter().any(|(t, m)| t == q && *m == n) {
            return;
        }
        if QUALIFIED_ALLOC.iter().any(|(t, m)| t == q && *m == n) {
            push_site(info, scanned, EffectSet::ALLOC, &format!("{q}::{n}"), line, tok);
            return;
        }
    }
    if PANIC_NAMES.contains(&n) {
        push_site(info, scanned, EffectSet::PANIC, n, line, tok);
        return;
    }
    if after_dot && LOCK_NAMES_DIRECT.contains(&n) {
        push_site(info, scanned, EffectSet::LOCK, n, line, tok);
        return;
    }
    if ALLOC_NAMES.contains(&n) {
        push_site(info, scanned, EffectSet::ALLOC, n, line, tok);
        return;
    }
    if IO_NAMES.contains(&n) {
        push_site(info, scanned, EffectSet::IO, n, line, tok);
        return;
    }
    info.calls.push(CallSite {
        name,
        qualifier,
        line,
        tok,
        self_recv,
        targets: Vec::new(),
        unknown: false,
    });
}

/// Appends one effect site, folding it into the direct set and checking
/// for a covering `allow-alloc` annotation.
fn push_site(
    info: &mut FnInfo,
    scanned: &crate::lexer::ScannedFile,
    effect: EffectSet,
    source: &str,
    line: usize,
    tok: usize,
) {
    let allowed = scanned.allow_alloc_at(line).map(|a| a.reason.clone());
    info.direct = info.direct.union(effect);
    info.sites.push(EffectSite { effect, source: source.to_string(), line, tok, allowed });
}

/// Whether `LOCK_NAMES` (the wide net used by the guard detector, not
/// the seeding table) contains `name`.
pub fn is_lock_name(name: &str) -> bool {
    LOCK_NAMES.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::symbols::tokenize;

    /// Builds a single-file pseudo-model for extraction tests (no
    /// resolution, no fixpoint).
    fn extract(src: &str) -> Vec<FnInfo> {
        let scanned = scan(src);
        let tokens = tokenize(&scanned.blanked);
        let mut out = Vec::new();
        for span in fn_spans(&tokens) {
            let mut info = FnInfo {
                file: 0,
                span,
                crate_name: "t".into(),
                direct: EffectSet::PURE,
                sites: Vec::new(),
                calls: Vec::new(),
                effects: EffectSet::PURE,
                hot_path: false,
                alloc_boundary: None,
            };
            extract_body(&tokens, &scanned, &mut info);
            out.push(info);
        }
        out
    }

    #[test]
    fn display_formats_effect_sets() {
        assert_eq!(EffectSet::PURE.to_string(), "pure");
        assert_eq!(EffectSet::ALLOC.union(EffectSet::PANIC).to_string(), "alloc|panic");
        assert_eq!(EffectSet::UNKNOWN.to_string(), "unknown");
    }

    #[test]
    fn intrinsic_sites_are_classified() {
        let fns = extract(
            "fn f(v: &mut Vec<u64>, m: &M) {\n\
             \x20   v.push(1);\n\
             \x20   let x = v[0];\n\
             \x20   m.cells.lock().unwrap();\n\
             \x20   println!(\"{x}\");\n\
             }\n",
        );
        let f = &fns[0];
        assert!(f.direct.contains(EffectSet::ALLOC));
        assert!(f.direct.contains(EffectSet::PANIC), "indexing and unwrap");
        assert!(f.direct.contains(EffectSet::LOCK));
        assert!(f.direct.contains(EffectSet::IO));
        let sources: Vec<&str> = f.sites.iter().map(|s| s.source.as_str()).collect();
        assert!(sources.contains(&"push"));
        assert!(sources.contains(&"index"));
        assert!(sources.contains(&"lock"));
    }

    #[test]
    fn attribute_and_slice_brackets_are_not_indexing() {
        let fns = extract(
            "fn f(xs: &[u64]) -> u64 {\n\
             \x20   let ys = [1u64, 2];\n\
             \x20   xs.iter().sum::<u64>() + ys.len() as u64\n\
             }\n",
        );
        assert!(fns[0].direct.is_pure(), "got {:?}", fns[0].sites);
    }

    #[test]
    fn lint_attributes_are_not_calls() {
        let fns = extract(
            "fn f(x: u64) -> u32 {\n\
             \x20   #[expect(clippy::cast_possible_truncation, reason = \"x < 8\")]\n\
             \x20   let y = (x & 7) as u32;\n\
             \x20   y\n\
             }\n",
        );
        assert!(fns[0].direct.is_pure(), "got {:?}", fns[0].sites);
    }

    #[test]
    fn benign_calls_resolve_benign() {
        let fns = extract("fn f(v: &[u64]) -> usize { v.iter().filter(|x| **x > 0).count() }\n");
        assert!(fns[0].direct.is_pure());
        assert!(
            fns[0].calls.iter().all(benign_unresolved),
            "iterator adapters are curated benign: {:?}",
            fns[0].calls
        );
    }

    #[test]
    fn unresolved_constructors_are_benign() {
        let c = CallSite {
            name: "Some".into(),
            qualifier: None,
            line: 1,
            tok: 0,
            self_recv: false,
            targets: Vec::new(),
            unknown: false,
        };
        assert!(benign_unresolved(&c));
        let c = CallSite { name: "mystery_fn".into(), ..c };
        assert!(!benign_unresolved(&c));
    }

    #[test]
    fn allow_alloc_annotation_covers_site() {
        let fns = extract(
            "fn f(v: &mut Vec<u64>) {\n\
             \x20   // audit:allow-alloc(bounded scratch)\n\
             \x20   v.push(1);\n\
             \x20   v.push(2);\n\
             }\n",
        );
        let sites = &fns[0].sites;
        assert_eq!(sites[0].allowed.as_deref(), Some("bounded scratch"));
        assert_eq!(sites[1].allowed, None, "annotation covers one site only");
    }

    #[test]
    fn qualified_calls_carry_their_qualifier() {
        let fns = extract("fn f() { Monitor::advance(3); helper(); }\n");
        let calls = &fns[0].calls;
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].qualifier.as_deref(), Some("Monitor"));
        assert_eq!(calls[1].qualifier, None);
    }

    #[test]
    fn debug_assert_is_not_a_panic_source() {
        let fns = extract("fn f(x: u64) { debug_assert!(x > 0); }\n");
        assert!(fns[0].direct.is_pure());
    }
}
