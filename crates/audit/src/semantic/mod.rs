//! Workspace-level semantic lints over the symbol index and the
//! name-based reference resolution.
//!
//! Both lints need the whole workspace at once, and neither has a
//! compiler equivalent:
//!
//! | lint | rule |
//! |------|------|
//! | `counter-dataflow` | every stats/telemetry counter field must be both written (incremented/assigned) and read outside tests, and its struct must have a reset/re-initialization path |
//! | `dead-cross-crate-pub` | `pub` items never referenced outside their defining crate must be in the checked-in baseline (`crates/audit/pub_baseline.txt`), and every baseline entry must still match such an item |

pub mod counter_flow;
pub mod dead_pub;

use crate::diag::Diagnostic;
use crate::resolve::Workspace;
use dead_pub::Baseline;

/// Runs both semantic lints.
pub(crate) fn run_semantic_lints(ws: &Workspace, baseline: &Baseline) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    counter_flow::lint(ws, &mut out);
    dead_pub::lint(ws, baseline, &mut out);
    out
}

/// Index of `rel` in `ws.files`, when present.
pub(crate) fn file_index(ws: &Workspace, rel: &str) -> Option<usize> {
    ws.files.iter().position(|f| f.rel == rel)
}
