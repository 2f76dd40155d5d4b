//! Atomic-ordering lint over the effect model.
//!
//! Every atomic operation in the workspace (a `.load(…)`-family call
//! whose arguments carry a memory-ordering path) is resolved to the
//! same lock/atomic identities the [lock lints](crate::locks) use, and
//! one hard-gated lint enforces the ordering discipline:
//!
//! | lint | rule |
//! |------|------|
//! | `atomic-ordering` | every non-`SeqCst` atomic op carries a ledger justification, and mixed orderings on one atomic identity need an acquire/release pairing on that same identity |
//!
//! The rationale: `SeqCst` is the only ordering that needs no argument,
//! so every weaker choice is a claim about the surrounding protocol —
//! the ledger entry (`<identity>:<op>:<Ordering>` in
//! `crates/audit/ledger.txt`) records that claim where review can
//! see it. Mixing orderings on one field is additionally suspect unless
//! the field itself carries the acquire/release pair that makes the mix
//! a protocol rather than an accident.

use crate::effects::{EffectModel, FnInfo};
use crate::ledger::Ledger;
use crate::locks::{receiver_segments, resolve_identity, LockUniverse};
use crate::resolve::Workspace;
use crate::symbols::{TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};

/// Method names that, combined with an ordering argument, identify an
/// atomic operation.
const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_nand",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
];

/// The five memory orderings.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Ops that read (can be the acquire side of a pairing). Everything
/// except `store` reads; everything except `load` writes.
fn reads(op: &str) -> bool {
    op != "store"
}

fn writes(op: &str) -> bool {
    op != "load"
}

/// One atomic operation site.
#[derive(Debug, Clone)]
struct AtomicOp {
    /// Resolved identity (shared with the lock lints).
    ident: String,
    /// Method name (`load`, `fetch_add`, …).
    op: String,
    /// Orderings named in the argument list (two for compare-exchange).
    orderings: Vec<String>,
    /// Owning function (index into `EffectModel::fns`).
    fn_idx: usize,
    /// 1-indexed source line.
    line: usize,
}

/// Extracts every atomic op from `f`'s body: an `ATOMIC_OPS` method
/// call whose argument list names at least one memory ordering.
fn atomic_ops(toks: &[Token], fi: usize, f: &FnInfo, uni: &LockUniverse) -> Vec<AtomicOp> {
    let mut out = Vec::new();
    let body = f.span.body.clone();
    for i in body.clone() {
        if i + 2 >= body.end
            || i == body.start
            || !toks[i].is_punct(".")
            || !toks[i + 2].is_punct("(")
        {
            continue;
        }
        let op = toks[i + 1].text.as_str();
        if !ATOMIC_OPS.contains(&op) {
            continue;
        }
        // Scan the balanced argument list for ordering idents.
        let mut depth = 0i32;
        let mut k = i + 2;
        let mut orderings = Vec::new();
        while k < body.end {
            match toks[k].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                text if toks[k].kind == TokKind::Ident && ORDERINGS.contains(&text) => {
                    orderings.push(text.to_string());
                }
                _ => {}
            }
            k += 1;
        }
        if orderings.is_empty() {
            continue; // `Vec::swap(a, b)` and friends — not atomic.
        }
        let segs = receiver_segments(toks, i - 1, body.start);
        let ident = resolve_identity(&segs, f, uni);
        out.push(AtomicOp {
            ident,
            op: op.to_string(),
            orderings,
            fn_idx: fi,
            line: toks[i + 1].line,
        });
    }
    out
}

/// Runs the atomic-ordering lint, checking every finding against
/// `ledger`.
pub(crate) fn run_atomic_lints(ws: &Workspace, model: &EffectModel, ledger: &mut Ledger<'_>) {
    let lint = "atomic-ordering";
    let uni = LockUniverse::build(ws);
    let mut ops: Vec<AtomicOp> = Vec::new();
    for (fi, f) in model.fns.iter().enumerate() {
        if !f.span.body.is_empty() {
            ops.extend(atomic_ops(&ws.files[f.file].tokens, fi, f, &uni));
        }
    }

    // Rule 1: every non-SeqCst ordering is a per-site claim.
    for op in &ops {
        let f = &model.fns[op.fn_idx];
        for ord in op.orderings.iter().filter(|o| *o != "SeqCst") {
            ledger.check(
                lint,
                f,
                &format!("{}:{}:{ord}", op.ident, op.op),
                op.line,
                format!(
                    "`{}` uses `{}({ord})` on `{}` without a ledger justification",
                    f.qualified(),
                    op.op,
                    op.ident
                ),
            );
        }
    }

    // Rule 2: mixed orderings on one identity need an acquire/release
    // pairing on that same identity.
    let mut by_ident: BTreeMap<&str, Vec<&AtomicOp>> = BTreeMap::new();
    for op in &ops {
        by_ident.entry(&op.ident).or_default().push(op);
    }
    for (ident, group) in by_ident {
        let distinct: BTreeSet<&str> =
            group.iter().flat_map(|o| o.orderings.iter().map(String::as_str)).collect();
        if distinct.len() <= 1 {
            continue;
        }
        let acquire_side = group.iter().any(|o| {
            reads(&o.op)
                && o.orderings.iter().any(|r| r == "Acquire" || r == "AcqRel" || r == "SeqCst")
        });
        let release_side = group.iter().any(|o| {
            writes(&o.op)
                && o.orderings.iter().any(|r| r == "Release" || r == "AcqRel" || r == "SeqCst")
        });
        if acquire_side && release_side {
            continue;
        }
        let first = group[0];
        ledger.check(
            lint,
            &model.fns[first.fn_idx],
            &format!("{ident}:mixed"),
            first.line,
            format!(
                "`{ident}` mixes orderings {{{}}} without an acquire/release pairing on the same atomic",
                distinct.into_iter().collect::<Vec<_>>().join(", ")
            ),
        );
    }
}
