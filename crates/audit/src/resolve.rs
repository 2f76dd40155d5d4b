//! Workspace loading, reference extraction and name resolution.
//!
//! [`Workspace::load`] walks the repository once, scanning every `.rs`
//! file through the lexer and symbol scanner and building:
//!
//! * a [`SymbolIndex`] of every declaration;
//! * an [`OccurrenceIndex`]: identifier name → every place it appears,
//!   with enough token context to classify the occurrence (increment,
//!   assignment, struct-literal init, read, declaration);
//! * per-file *compilation units*: `src/bin/*`, `tests/`, `benches/` and
//!   `examples/` files are separate crates to cargo, and the resolver
//!   models them the same way (`nucache-sim/tests`, …) so a lib item used
//!   only by its own integration tests still counts as referenced from
//!   outside the lib.
//!
//! Resolution is name-based: an identifier occurrence refers to every
//! symbol of the same name. That conservatism is deliberate — a common
//! name like `new` resolves everywhere and therefore never produces a
//! false "dead" or "write-only" finding; distinctive names (the ones
//! worth auditing) resolve essentially uniquely.

use crate::lexer::{scan, ScannedFile};
use crate::manifest::Manifests;
use crate::symbols::{scan_symbols, tokenize, FileSymbols, SymbolIndex, TokKind, Token};
use crate::walk::{classify, collect_rs_files, FileClass};
use std::collections::BTreeMap;
use std::path::Path;

/// One scanned source file with everything the lints need.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// Raw source text (doc-comment checks need the unblanked text).
    pub raw: String,
    /// Path classification.
    pub class: FileClass,
    /// Lexer output (blanked text, annotations, test regions).
    pub scanned: ScannedFile,
    /// Token stream of the blanked text.
    pub tokens: Vec<Token>,
    /// Declared symbols.
    pub symbols: FileSymbols,
    /// Compilation unit (see [`unit_of`]).
    pub unit: String,
}

/// The compilation unit a file belongs to: the crate name, refined with
/// `/bin`, `/tests`, `/benches`, `/examples` or `/build` for targets that
/// cargo compiles as separate crates.
pub fn unit_of(class: &FileClass) -> String {
    let suffix = if class.is_bin {
        "/bin"
    } else if class.is_test_dir {
        "/tests"
    } else if class.is_bench {
        "/benches"
    } else if class.is_example {
        "/examples"
    } else if class.is_build_script {
        "/build"
    } else {
        ""
    };
    format!("{}{suffix}", class.crate_name)
}

/// How an identifier occurrence is used, judged from the surrounding
/// tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UseKind {
    /// `name += …` / `name -= …` (also via `.name`).
    Increment,
    /// `name = …` plain assignment.
    Assign,
    /// `name: …` in a struct literal (or a field declaration — the
    /// consumer skips known declaration sites by position).
    Init,
    /// Anything else: the value is read.
    Read,
}

/// One identifier occurrence.
#[derive(Debug, Clone)]
pub struct Occurrence {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// 1-indexed line.
    pub line: usize,
    /// Char offset of the identifier.
    pub pos: usize,
    /// Usage classification.
    pub kind: UseKind,
    /// Whether the token directly follows a `.` (field/method access).
    pub after_dot: bool,
    /// Whether the token is directly followed by `(` (call).
    pub call: bool,
}

/// Identifier name → occurrences, workspace-wide.
#[derive(Debug, Default)]
pub struct OccurrenceIndex {
    /// Map from identifier text to all its occurrences, in file order.
    pub by_name: BTreeMap<String, Vec<Occurrence>>,
}

/// Rust keywords and primitive type names — never indexed as references.
const NON_REFERENCE: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true", "type",
    "unsafe", "use", "where", "while", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16",
    "i32", "i64", "i128", "isize", "f32", "f64", "bool", "char", "str",
];

/// Classifies and indexes every identifier of `tokens`.
fn index_file(file: usize, tokens: &[Token], out: &mut OccurrenceIndex) {
    for (ti, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || NON_REFERENCE.contains(&t.text.as_str()) {
            continue;
        }
        let next = tokens.get(ti + 1);
        let prev = ti.checked_sub(1).and_then(|p| tokens.get(p));
        let after_dot = prev.is_some_and(|p| p.is_punct("."));
        let call = next.is_some_and(|n| n.is_punct("("));
        let kind = match next.map(|n| n.text.as_str()) {
            Some("+=") | Some("-=") | Some("*=") | Some("|=") | Some("&=") | Some("^=")
            | Some("<<=") | Some(">>=") => UseKind::Increment,
            Some("=") => UseKind::Assign,
            Some(":") => UseKind::Init,
            _ => UseKind::Read,
        };
        out.by_name.entry(t.text.clone()).or_default().push(Occurrence {
            file,
            line: t.line,
            pos: t.pos,
            kind,
            after_dot,
            call,
        });
    }
}

/// The loaded workspace: every file model, the symbol index, the
/// occurrence index and the crates' dependency sets.
#[derive(Debug)]
pub struct Workspace {
    /// Scanned `.rs` files in path order.
    pub files: Vec<FileModel>,
    /// All declared symbols.
    pub index: SymbolIndex,
    /// All identifier occurrences.
    pub occurrences: OccurrenceIndex,
    /// Dependency facts from the workspace `Cargo.toml`s.
    pub manifests: Manifests,
}

impl Workspace {
    /// Loads and scans every source file under `root`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the directory walk or file reads.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        let mut index = SymbolIndex::default();
        let mut occurrences = OccurrenceIndex::default();
        for path in collect_rs_files(root)? {
            let rel = rel_path(root, &path);
            let source = std::fs::read_to_string(&path)?;
            let class = classify(&rel);
            let scanned = scan(&source);
            let tokens = tokenize(&scanned.blanked);
            let symbols = scan_symbols(&rel, &tokens);
            index.add_file(&class.crate_name, &symbols);
            let unit = unit_of(&class);
            let file_id = files.len();
            index_file(file_id, &tokens, &mut occurrences);
            files.push(FileModel { rel, raw: source, class, scanned, tokens, symbols, unit });
        }
        let manifests = Manifests::load(root);
        Ok(Workspace { files, index, occurrences, manifests })
    }

    /// Whether `occ` sits at the declaration of any indexed symbol (same
    /// file and char position as a declared name token).
    pub fn is_declaration(&self, name: &str, occ: &Occurrence) -> bool {
        self.index.named(name).any(|(_, s)| s.file == self.files[occ.file].rel && s.pos == occ.pos)
    }

    /// Whether the occurrence lies in test code: a `tests/` file or a
    /// `#[cfg(test)]` item of a lib file.
    pub fn is_test_occurrence(&self, occ: &Occurrence) -> bool {
        let f = &self.files[occ.file];
        f.class.is_test_dir || f.scanned.is_test_code(occ.line)
    }

    /// Occurrences of `name`, if any.
    pub fn occurrences_of(&self, name: &str) -> &[Occurrence] {
        self.occurrences.by_name.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Workspace-relative path with forward slashes.
pub fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_refinement() {
        assert_eq!(unit_of(&classify("crates/sim/src/runner.rs")), "nucache-sim");
        assert_eq!(unit_of(&classify("crates/sim/tests/t.rs")), "nucache-sim/tests");
        assert_eq!(
            unit_of(&classify("crates/experiments/src/bin/simulate.rs")),
            "nucache-experiments/bin"
        );
        assert_eq!(unit_of(&classify("crates/bench/benches/b.rs")), "nucache-bench/benches");
        assert_eq!(unit_of(&classify("examples/e.rs")), "root/examples");
        assert_eq!(unit_of(&classify("tests/t.rs")), "root/tests");
    }

    #[test]
    fn occurrence_classification() {
        let tokens =
            tokenize("self.hits += 1; let x = total; count = 0; S { fills: 3 }; m.record(); decl");
        let mut idx = OccurrenceIndex::default();
        index_file(0, &tokens, &mut idx);
        let one = |name: &str| {
            let occs = idx.by_name.get(name).expect(name);
            assert_eq!(occs.len(), 1, "{name}");
            occs[0].clone()
        };
        assert_eq!(one("hits").kind, UseKind::Increment);
        assert!(one("hits").after_dot);
        assert_eq!(one("total").kind, UseKind::Read);
        assert_eq!(one("count").kind, UseKind::Assign);
        assert_eq!(one("fills").kind, UseKind::Init);
        assert!(one("record").call);
        assert_eq!(one("decl").kind, UseKind::Read);
        assert!(!idx.by_name.contains_key("let"), "keywords are not references");
    }
}
