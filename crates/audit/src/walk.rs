//! Workspace file discovery and path classification.

use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "runs", "results", "fixtures"];

/// Collects every `.rs` file under `root`, sorted by path so the walk
/// (and therefore diagnostic order) is deterministic.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = std::fs::read_dir(&dir)?
            .collect::<std::io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Where a source file sits in the workspace — drives which lints apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Crate the file belongs to (`nucache-core`, `root`, `vendor/rand`, …).
    pub crate_name: String,
    /// Vendored third-party code (`vendor/*`): only `forbid-unsafe-missing`
    /// is checked there, and only at crate roots.
    pub is_vendor: bool,
    /// Integration-test file (`tests/` directory).
    pub is_test_dir: bool,
    /// Benchmark file (`benches/` directory).
    pub is_bench: bool,
    /// Binary target (`src/bin/` or `src/main.rs`).
    pub is_bin: bool,
    /// Example program (`examples/` directory).
    pub is_example: bool,
    /// Crate root (`src/lib.rs` or `src/main.rs`): must carry
    /// `#![forbid(unsafe_code)]`.
    pub is_crate_root: bool,
    /// Build script (`build.rs`).
    pub is_build_script: bool,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(rel: &str) -> FileClass {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, is_vendor) = match parts.as_slice() {
        ["crates", name, ..] => (format!("nucache-{name}"), false),
        ["vendor", name, ..] => (format!("vendor/{name}"), true),
        _ => ("root".to_string(), false),
    };
    let is_test_dir = parts.contains(&"tests");
    let is_bench = parts.contains(&"benches");
    let is_example = parts.contains(&"examples");
    let file = parts.last().copied().unwrap_or("");
    let in_bin_dir = parts.windows(2).any(|w| w == ["src", "bin"]);
    let is_bin = in_bin_dir || (file == "main.rs" && parts.contains(&"src"));
    let is_crate_root =
        (file == "lib.rs" || file == "main.rs") && parts.iter().rev().nth(1) == Some(&"src");
    let is_build_script = rel.ends_with("build.rs") && !parts.contains(&"src");
    FileClass {
        crate_name,
        is_vendor,
        is_test_dir,
        is_bench,
        is_bin,
        is_example,
        is_crate_root,
        is_build_script,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_core_lib() {
        let c = classify("crates/core/src/llc.rs");
        assert_eq!(c.crate_name, "nucache-core");
        assert!(!c.is_crate_root && !c.is_bin && !c.is_test_dir);
    }

    #[test]
    fn classify_crate_roots() {
        assert!(classify("crates/core/src/lib.rs").is_crate_root);
        assert!(classify("src/lib.rs").is_crate_root);
        assert!(classify("vendor/rand/src/lib.rs").is_crate_root);
        assert!(!classify("crates/core/src/llc.rs").is_crate_root);
        let bin = classify("crates/experiments/src/bin/simulate.rs");
        assert!(bin.is_bin && !bin.is_crate_root);
    }
}
