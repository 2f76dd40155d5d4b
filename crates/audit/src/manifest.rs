//! Minimal workspace-manifest model: which crates each crate depends on.
//!
//! The effect call graph only follows a name-match edge into a crate the
//! caller could actually compile against. Pulling in a TOML parser for
//! that would be the tail wagging the dog — the workspace manifests are
//! plain `key = value` tables — so this module reads exactly the two
//! dependency shapes the workspace uses:
//!
//! * entries of a `[dependencies]`-style table (inline tables and dotted
//!   keys alike);
//! * `[dependencies.<pkg>]` sub-tables.
//!
//! Everything else in a manifest is ignored. Crates are keyed by the
//! same names [`classify`](crate::walk::classify) assigns to source
//! files (`nucache-<dir>` for `crates/<dir>`, `root` for the workspace
//! root package), so consumers can join manifest facts against
//! [`FileClass::crate_name`](crate::walk::FileClass) directly.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The dependency facts of one crate's `Cargo.toml`.
#[derive(Debug, Default, Clone)]
pub struct CrateManifest {
    /// Every package name this crate depends on (normal, dev and build
    /// dependencies alike) — the effect call graph only follows edges a
    /// crate could actually compile against.
    pub deps: BTreeSet<String>,
}

/// Dependency facts for every workspace crate, keyed by crate name.
#[derive(Debug, Default)]
pub struct Manifests {
    /// `crate_name` → parsed manifest facts.
    pub by_crate: BTreeMap<String, CrateManifest>,
}

impl Manifests {
    /// Reads the root manifest and every `crates/<dir>/Cargo.toml`.
    /// Unreadable or absent manifests (fixture mini-workspaces) simply
    /// yield no entry — consumers treat a missing manifest conservatively.
    pub fn load(root: &Path) -> Manifests {
        let mut by_crate = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(root.join("Cargo.toml")) {
            by_crate.insert("root".to_string(), parse_manifest(&text));
        }
        if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
            let mut dirs: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
            dirs.sort();
            for dir in dirs {
                let Some(name) = dir.file_name().and_then(|n| n.to_str()) else { continue };
                if let Ok(text) = std::fs::read_to_string(dir.join("Cargo.toml")) {
                    by_crate.insert(format!("nucache-{name}"), parse_manifest(&text));
                }
            }
        }
        Manifests { by_crate }
    }
}

/// Parses one manifest's text into its dependency set.
fn parse_manifest(text: &str) -> CrateManifest {
    let mut deps = BTreeSet::new();
    let mut section = String::new();
    for raw in text.lines() {
        // Strip a trailing `# comment` (the workspace manifests never put
        // `#` inside strings on dependency lines).
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        if let Some(pkg) = section
            .strip_prefix("dependencies.")
            .or_else(|| section.strip_prefix("dev-dependencies."))
            .or_else(|| section.strip_prefix("build-dependencies."))
        {
            // Sub-table: `[dependencies.pkg]` with `path = …` lines.
            deps.insert(pkg.trim_matches('"').to_string());
        } else if section.contains("dependencies") {
            // Inline table (`pkg = { path = "…" }`) or dotted key
            // (`pkg.workspace = true`).
            if let Some((key, _)) = line.split_once('=') {
                let key = key.trim().trim_matches('"');
                deps.insert(key.split('.').next().unwrap_or(key).to_string());
            }
        }
    }
    CrateManifest { deps }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_dependency_shape() {
        let m = parse_manifest(
            r#"
[package]
name = "demo"

[features]
std = ["other/std"] # trailing comment

[dependencies]
other = { path = "../other", default-features = false }
plain = { path = "../plain" }
dotted.workspace = true

[dev-dependencies.devdep]
path = "../devdep"
default-features = false
"#,
        );
        let deps: Vec<&str> = m.deps.iter().map(String::as_str).collect();
        assert_eq!(deps, ["devdep", "dotted", "other", "plain"], "dotted keys are normalized");
    }
}
