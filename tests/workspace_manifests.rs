//! The workspace forbids `unsafe` through rustc: `[workspace.lints.rust]`
//! pins `unsafe_code = "forbid"` and every member opts in with
//! `[lints] workspace = true`. rustc then passes `-F unsafe-code` to each
//! member's lib, bins, tests, examples and build script, which rejects
//! any `unsafe` block and any `#[allow(unsafe_code)]` (E0453). This test
//! pins both preconditions.

use std::path::{Path, PathBuf};

/// The lines of `[name]` in `manifest`, comments and spaces removed.
fn section(manifest: &str, name: &str) -> Vec<String> {
    let header = format!("[{name}]");
    manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").replace(' ', ""))
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .collect()
}

/// Every member manifest: the root package plus the `members` entries,
/// with `dir/*` globs expanded to the subdirectories holding a manifest.
fn member_manifests(root: &Path, manifest: &str) -> Vec<PathBuf> {
    let workspace = section(manifest, "workspace").concat();
    let list = workspace.split("members=[").nth(1).and_then(|l| l.split(']').next());
    let mut out = vec![root.join("Cargo.toml")];
    for entry in list.unwrap_or_default().split(',').map(|e| e.trim_matches('"')) {
        match entry.strip_suffix("/*") {
            Some(dir) => {
                let mut dirs: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
                    .into_iter()
                    .flatten()
                    .filter_map(|e| Some(e.ok()?.path().join("Cargo.toml")))
                    .filter(|m| m.is_file())
                    .collect();
                dirs.sort();
                if dirs.is_empty() {
                    // A glob matching nothing fails below as an unreadable manifest.
                    dirs.push(root.join(dir).join("Cargo.toml"));
                }
                out.extend(dirs);
            }
            None if !entry.is_empty() => out.push(root.join(entry).join("Cargo.toml")),
            None => {}
        }
    }
    out
}

#[test]
fn every_member_inherits_the_unsafe_forbid() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert!(
        section(&manifest, "workspace.lints.rust").contains(&r#"unsafe_code="forbid""#.into()),
        "[workspace.lints.rust] must pin unsafe_code = \"forbid\""
    );
    let members = member_manifests(root, &manifest);
    assert!(members.len() > 1, "`members` not parsed: {members:?}");
    let missing: Vec<&PathBuf> = members
        .iter()
        .filter(|m| {
            let text = std::fs::read_to_string(m).unwrap_or_default();
            !section(&text, "lints").contains(&"workspace=true".into())
        })
        .collect();
    assert!(missing.is_empty(), "members without `[lints] workspace = true`: {missing:?}");
}
