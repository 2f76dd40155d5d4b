//! Workspace audit for the NUcache workspace.
//!
//! `nucache-audit` walks every `.rs` file in the workspace and enforces
//! the project invariants that `rustc`/`clippy` cannot express. Rules a
//! compiler gate covers at least as strictly live there instead:
//!
//! * clippy denies `unwrap_used`, `expect_used`, the lossy `cast_*`
//!   lints and the `disallowed_types` listed in `clippy.toml`
//!   (`HashMap`/`HashSet`, `Instant`/`SystemTime`), with per-site
//!   `#[expect]` exemptions;
//! * rustc forbids `unsafe_code` through `[workspace.lints.rust]`, which
//!   every member opts into (pinned by the root
//!   `tests/workspace_manifests.rs`);
//! * CI compiles every package under every combination of its
//!   features, so a reference to a feature-gated item from ungated code
//!   fails the build that breaks;
//! * `crates/sim/tests/config_contract.rs` checks the constants named
//!   in the DESIGN.md and EXPERIMENTS.md tables against the code.
//!
//! One run ([`run`]) loads the workspace once, builds the effect model
//! once and runs all eleven lints ([`LINTS`]):
//!
//! * two workspace-level [semantic lints](semantic) over a lexical
//!   [symbol index](symbols) and name-based [reference
//!   resolution](resolve): `counter-dataflow` and `dead-cross-crate-pub`,
//!   the latter against `crates/audit/pub_baseline.txt`. See `DESIGN.md`
//!   §10;
//! * the flow-aware layer ([mod@cfg], [effects], [hotpath]) builds
//!   per-function control-flow graphs, infers an `alloc`/`panic`/`lock`/`io`
//!   effect set per function through the workspace call graph, and gates
//!   the kernel's hot-path contracts (`alloc-in-hot-path`,
//!   `panic-in-hot-path`, `lock-held-across-call`, `alloc-contract-drift`).
//!   See `DESIGN.md` §14;
//! * the concurrency-soundness layer ([locks], [atomics]) resolves every
//!   `Mutex`/`RwLock` guard and atomic op to a concrete lock identity,
//!   builds the workspace lock-acquisition-order graph, and gates
//!   `lock-order-cycle`, `double-lock`, `guard-escapes-hot-path` and
//!   `atomic-ordering`. See `DESIGN.md` §15.
//!
//! The effect, lock and atomic findings are checked against one
//! [ledger] (`crates/audit/ledger.txt`), whose unedited stubs are
//! `stub-justification` findings. The ledger and the dead-pub baseline
//! are the only ways to tolerate a finding, and a stale entry in either
//! is itself a finding. The scanner is a self-contained lexer — no
//! external dependencies — so the audit builds and runs offline even
//! when the simulator crates themselves are broken.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![expect(
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss,
    reason = "tool crate: signed token cursors over in-memory token vectors"
)]

pub mod atomics;
pub mod cfg;
pub mod diag;
pub mod effects;
pub mod hotpath;
pub mod ledger;
pub mod lexer;
pub mod locks;
pub mod manifest;
pub mod resolve;
pub mod semantic;
pub mod symbols;
pub mod walk;

pub use cfg::{build_cfg, fn_spans, Cfg, FnSpan};
pub use diag::{Diagnostic, Severity};
pub use effects::{EffectModel, EffectSet, FnInfo};
pub use ledger::{Justification, Justifications, LEDGER_REL, STUB_REASON};
pub use lexer::ScannedFile;
pub use resolve::Workspace;
pub use semantic::dead_pub::{Baseline, BASELINE_REL};
pub use symbols::{SymbolIndex, SymbolKind, Visibility};
pub use walk::{classify, collect_rs_files, FileClass};

/// Every lint id with its one-line rule, in report order.
pub const LINTS: &[(&str, &str)] = &[
    (
        "counter-dataflow",
        "counter fields must be incremented AND read outside tests, with a reset path",
    ),
    (
        "dead-cross-crate-pub",
        "pub items never referenced outside their crate must be baselined; stale entries are findings",
    ),
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
    (
        "lock-order-cycle",
        "the workspace lock-acquisition-order graph must be acyclic across all call paths",
    ),
    (
        "double-lock",
        "no CFG path re-acquires a lock identity while a guard of the same identity is live",
    ),
    ("guard-escapes-hot-path", "an audit:hot-path fn must not return or store a lock guard"),
    (
        "atomic-ordering",
        "non-SeqCst atomic ops need ledger justification; mixed orderings on one atomic need an acquire/release pair",
    ),
    (
        "stub-justification",
        "a ledger entry must not keep the `--update-justify` stub reason",
    ),
];

/// Runs all eleven lints over `ws`: the semantic pair against
/// `baseline`, the effect, lock and atomic families over `model`
/// against the ledger `just`. Returns the findings sorted by (file,
/// line, lint, message) and deduplicated, plus every ledger entry the
/// tree requires (existing reasons kept, new ones stubbed) for
/// `--update-justify`.
pub fn run(
    ws: &Workspace,
    model: &EffectModel,
    just: &Justifications,
    baseline: &Baseline,
) -> (Vec<Diagnostic>, Vec<Justification>) {
    let mut ledger = ledger::Ledger::new(ws, just);
    hotpath::run_effect_lints(ws, model, &mut ledger);
    locks::run_lock_lints(ws, model, &mut ledger);
    atomics::run_atomic_lints(ws, model, &mut ledger);
    let (mut diags, required) = ledger.finish();
    diags.extend(semantic::run_semantic_lints(ws, baseline));
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.lint, &a.message).cmp(&(&b.file, b.line, b.lint, &b.message))
    });
    diags.dedup();
    (diags, required)
}
