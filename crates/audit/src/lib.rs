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
//! The `lint` subcommand runs two workspace-level
//! [semantic lints](semantic) over a lexical [symbol index](symbols) and
//! name-based [reference resolution](resolve): `counter-dataflow` and
//! `dead-cross-crate-pub`. See `DESIGN.md` §10 for the analysis model.
//! A finding can be suppressed at the site with a justification comment:
//!
//! ```text
//! // nucache-audit: allow(counter-dataflow) -- exported via debugger only
//! ```
//!
//! (on the same line or the line above), or for a whole file with
//! `allow-file(lint-name)`. The scanner is a self-contained lexer — no
//! external dependencies — so the audit builds and runs offline even when
//! the simulator crates themselves are broken.
//!
//! The flow-aware layer ([mod@cfg], [effects], [hotpath]) builds per-function
//! control-flow graphs, infers an `alloc`/`panic`/`lock`/`io` effect set
//! per function through the workspace call graph, and gates the kernel's
//! hot-path contracts (`alloc-in-hot-path`, `panic-in-hot-path`,
//! `lock-held-across-call`, `alloc-contract-drift`) against a per-site
//! justification file. See
//! `DESIGN.md` §14.
//!
//! The concurrency-soundness layer ([locks], [atomics]) resolves every
//! `Mutex`/`RwLock` guard and atomic op to a concrete lock identity,
//! builds the workspace lock-acquisition-order graph, and gates
//! `lock-order-cycle`, `double-lock`, `guard-escapes-hot-path` and
//! `atomic-ordering` against the shared `crates/audit/concurrency.txt`
//! ledger. See `DESIGN.md` §15.

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
pub mod lexer;
pub mod locks;
pub mod manifest;
pub mod resolve;
pub mod semantic;
pub mod symbols;
pub mod walk;

pub use atomics::{run_atomic_lints, ATOMIC_LINTS};
pub use cfg::{build_cfg, fn_spans, Cfg, FnSpan};
pub use diag::{Diagnostic, Severity};
pub use effects::{EffectModel, EffectSet, FnInfo};
pub use hotpath::{run_effect_lints, Justifications, EFFECT_LINTS, STUB_REASON};
pub use lexer::ScannedFile;
pub use locks::{run_lock_lints, CONCURRENCY_LEDGER, LOCK_LINTS};
pub use resolve::Workspace;
pub use semantic::{dead_pub::Baseline, run_semantic_lints, SEMANTIC_LINTS};
pub use symbols::{SymbolIndex, SymbolKind, Visibility};
pub use walk::{classify, collect_rs_files, FileClass};
