//! Workspace symbol index: tokens, items and fields.
//!
//! Built on top of [`crate::lexer`]: the blanked source (comments and
//! literals spaced out, char-for-char aligned with the original) is
//! tokenized, then a single forward pass extracts item declarations with
//! their visibility, enclosing module/impl and declared types, plus the
//! structs that derive `Default`.
//!
//! The index is deliberately lexical — no type checking, no macro
//! expansion. It is precise enough for the workspace's curated style
//! (items at module scope, test modules trailing) and the semantic lints
//! treat name collisions conservatively.

use std::collections::BTreeMap;
use std::fmt;

/// Token classes the symbol scanner distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (blanked string/char literals never produce one).
    Num,
    /// Operator or delimiter, possibly multi-char (`::`, `+=`, …).
    Punct,
    /// Lifetime (`'a`), kept distinct so it never looks like an ident.
    Lifetime,
}

/// One token of a blanked source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Token text (for `Punct`, the full multi-char operator).
    pub text: String,
    /// 1-indexed source line.
    pub line: usize,
    /// Char offset of the token start in the (blanked or raw) source.
    pub pos: usize,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// Multi-char operators emitted as single tokens, longest first so the
/// tokenizer is greedy.
const MULTI_PUNCT: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=",
    "%=", "|=", "&=", "^=", "<<", ">>", "&&", "||", "..",
];

/// Tokenizes a blanked source file.
pub fn tokenize(blanked: &str) -> Vec<Token> {
    let chars: Vec<char> = blanked.chars().collect();
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c == '\'' {
            // Only lifetimes survive blanking ('x' literals are spaces).
            let start = i;
            i += 1;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.push(Token {
                kind: TokKind::Lifetime,
                text: chars[start..i].iter().collect(),
                line,
                pos: start,
            });
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.push(Token {
                kind: TokKind::Ident,
                text: chars[start..i].iter().collect(),
                line,
                pos: start,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.push(Token {
                kind: TokKind::Num,
                text: chars[start..i].iter().collect(),
                line,
                pos: start,
            });
            continue;
        }
        let mut matched = None;
        for op in MULTI_PUNCT {
            let op_chars: Vec<char> = op.chars().collect();
            if chars[i..].starts_with(&op_chars) {
                matched = Some(op.len());
                break;
            }
        }
        let len = matched.unwrap_or(1);
        out.push(Token {
            kind: TokKind::Punct,
            text: chars[i..i + len].iter().collect(),
            line,
            pos: i,
        });
        i += len;
    }
    out
}

/// What kind of item a symbol is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SymbolKind {
    /// Free function or method.
    Fn,
    /// Struct definition.
    Struct,
    /// Enum definition.
    Enum,
    /// Trait definition.
    Trait,
    /// Type alias.
    TypeAlias,
    /// Module (inline or file).
    Mod,
    /// `const` item (free or associated).
    Const,
    /// `static` item.
    Static,
    /// Named struct field.
    Field,
    /// `macro_rules!` definition.
    Macro,
    /// `pub use` re-export (name is the re-exported binding).
    Reexport,
}

impl SymbolKind {
    /// Stable lowercase label used in reports and the dead-pub baseline.
    pub const fn label(self) -> &'static str {
        match self {
            SymbolKind::Fn => "fn",
            SymbolKind::Struct => "struct",
            SymbolKind::Enum => "enum",
            SymbolKind::Trait => "trait",
            SymbolKind::TypeAlias => "type",
            SymbolKind::Mod => "mod",
            SymbolKind::Const => "const",
            SymbolKind::Static => "static",
            SymbolKind::Field => "field",
            SymbolKind::Macro => "macro",
            SymbolKind::Reexport => "use",
        }
    }
}

/// Item visibility, collapsed to what the lints need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// Bare `pub`: visible outside the crate.
    Pub,
    /// `pub(crate)` / `pub(super)` / `pub(in …)`: crate-internal.
    PubCrate,
    /// No `pub`.
    Private,
}

/// One declared symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Item name.
    pub name: String,
    /// Item kind.
    pub kind: SymbolKind,
    /// Workspace-relative file with forward slashes.
    pub file: String,
    /// 1-indexed declaration line.
    pub line: usize,
    /// Char offset of the name token (used to skip the declaration when
    /// counting references).
    pub pos: usize,
    /// Visibility.
    pub vis: Visibility,
    /// Enclosing type (for methods, associated consts and fields) or
    /// module name.
    pub parent: Option<String>,
    /// For `Field`: the declared type text, whitespace-squashed.
    pub field_type: Option<String>,
}

impl Symbol {
    /// `Parent::name` when the symbol has a parent, else `name` — the
    /// stable key used by the dead-pub baseline.
    pub fn qualified(&self) -> String {
        match &self.parent {
            Some(p) => format!("{p}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} ({}:{})", self.kind.label(), self.qualified(), self.file, self.line)
    }
}

/// Everything the symbol scanner extracts from one file.
#[derive(Debug, Clone, Default)]
pub struct FileSymbols {
    /// Declared symbols in declaration order.
    pub symbols: Vec<Symbol>,
    /// Struct names carrying `#[derive(..)]` with `Default`.
    pub derives_default: Vec<String>,
}

/// What the scanner is currently inside of.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ScopeKind {
    /// File root or an inline `mod`.
    Module,
    /// `impl` block body; the string is the Self-type name.
    Impl(String),
    /// `trait` body; the string is the trait name.
    Trait(String),
    /// Named-struct body; fields are parsed here.
    StructBody(String),
    /// Anything else (fn body, enum body, match arm, …).
    Opaque,
}

#[derive(Debug)]
struct Scope {
    kind: ScopeKind,
}

/// Scans one file into its symbol set.
///
/// `rel` is the workspace-relative path; `tokens` the token stream of
/// the file's blanked source.
pub fn scan_symbols(rel: &str, tokens: &[Token]) -> FileSymbols {
    let mut out = FileSymbols::default();
    let mut scopes: Vec<Scope> = vec![Scope { kind: ScopeKind::Module }];
    // Scopes opened per brace, aligned with `{`/`}` nesting. Each `{`
    // pushes exactly one scope; each `}` pops one.
    // Whether a `#[derive(.., Default, ..)]` precedes the next item.
    let mut derive_default = false;
    let mut i = 0usize;

    while i < tokens.len() {
        let t = &tokens[i];
        match (&t.kind, t.text.as_str()) {
            (TokKind::Punct, "#") => {
                let (next_i, derives) = parse_attribute(tokens, i);
                derive_default |= derives;
                i = next_i;
                continue;
            }
            (TokKind::Punct, "{") => {
                scopes.push(Scope { kind: ScopeKind::Opaque });
                derive_default = false;
                i += 1;
                continue;
            }
            (TokKind::Punct, "}") => {
                if scopes.len() > 1 {
                    scopes.pop();
                }
                derive_default = false;
                i += 1;
                continue;
            }
            _ => {}
        }

        let item_scope = matches!(
            scopes.last().map(|s| &s.kind),
            Some(ScopeKind::Module | ScopeKind::Impl(_) | ScopeKind::Trait(_))
        );
        let in_struct_body =
            matches!(scopes.last().map(|s| &s.kind), Some(ScopeKind::StructBody(_)));

        if in_struct_body {
            i = parse_field(tokens, i, rel, &mut out, &scopes);
            derive_default = false;
            continue;
        }
        if !item_scope || t.kind != TokKind::Ident {
            derive_default = false;
            i += 1;
            continue;
        }

        // Visibility prefix.
        let mut j = i;
        let mut vis = Visibility::Private;
        if tokens[j].is_ident("pub") {
            vis = Visibility::Pub;
            j += 1;
            if j < tokens.len() && tokens[j].is_punct("(") {
                vis = Visibility::PubCrate;
                j = skip_balanced(tokens, j);
            }
        }
        // Leading qualifiers that don't change the item kind.
        while j < tokens.len()
            && (tokens[j].is_ident("unsafe")
                || tokens[j].is_ident("async")
                || tokens[j].is_ident("extern")
                || tokens[j].is_ident("default"))
        {
            j += 1;
        }
        let Some(kw) = tokens.get(j) else { break };
        let parent = scopes.iter().rev().find_map(|s| match &s.kind {
            ScopeKind::Impl(n) | ScopeKind::Trait(n) => Some(n.clone()),
            _ => None,
        });
        match kw.text.as_str() {
            "fn" => {
                if let Some(name) = tokens.get(j + 1) {
                    out.symbols.push(Symbol {
                        name: name.text.clone(),
                        kind: SymbolKind::Fn,
                        file: rel.to_string(),
                        line: name.line,
                        pos: name.pos,
                        vis,
                        parent,
                        field_type: None,
                    });
                }
                i = j + 1;
            }
            "struct" => {
                if let Some(name) = tokens.get(j + 1) {
                    out.symbols.push(Symbol {
                        name: name.text.clone(),
                        kind: SymbolKind::Struct,
                        file: rel.to_string(),
                        line: name.line,
                        pos: name.pos,
                        vis,
                        parent: None,
                        field_type: None,
                    });
                    if derive_default {
                        out.derives_default.push(name.text.clone());
                    }
                    // If a named body follows ( `{` before `;`/`(` ), parse
                    // fields inside it.
                    let mut k = j + 2;
                    while k < tokens.len()
                        && !tokens[k].is_punct("{")
                        && !tokens[k].is_punct(";")
                        && !tokens[k].is_punct("(")
                    {
                        k += 1;
                    }
                    if k < tokens.len() && tokens[k].is_punct("{") {
                        scopes.push(Scope { kind: ScopeKind::StructBody(name.text.clone()) });
                        derive_default = false;
                        i = k + 1;
                        continue;
                    }
                }
                i = j + 1;
            }
            "enum" | "trait" | "type" | "mod" | "static" => {
                if let Some(name) = tokens.get(j + 1) {
                    let kind = match kw.text.as_str() {
                        "enum" => SymbolKind::Enum,
                        "trait" => SymbolKind::Trait,
                        "type" => SymbolKind::TypeAlias,
                        "mod" => SymbolKind::Mod,
                        _ => SymbolKind::Static,
                    };
                    // `static NAME: Ty = …;` — record the declared type so
                    // the concurrency lints can recognize lock statics.
                    let field_type = (kind == SymbolKind::Static)
                        .then(|| static_type_text(tokens, j + 2))
                        .flatten();
                    out.symbols.push(Symbol {
                        name: name.text.clone(),
                        kind,
                        file: rel.to_string(),
                        line: name.line,
                        pos: name.pos,
                        vis,
                        parent: parent.clone(),
                        field_type,
                    });
                    if kind == SymbolKind::Mod {
                        // `mod name {` opens a module scope; `mod name;` is
                        // just a declaration.
                        if tokens.get(j + 2).is_some_and(|t| t.is_punct("{")) {
                            scopes.push(Scope { kind: ScopeKind::Module });
                            derive_default = false;
                            i = j + 3;
                            continue;
                        }
                    }
                    if kind == SymbolKind::Trait {
                        // Find the trait body `{` (skipping bounds).
                        let mut k = j + 2;
                        while k < tokens.len()
                            && !tokens[k].is_punct("{")
                            && !tokens[k].is_punct(";")
                        {
                            k += 1;
                        }
                        if k < tokens.len() && tokens[k].is_punct("{") {
                            scopes.push(Scope { kind: ScopeKind::Trait(name.text.clone()) });
                            derive_default = false;
                            i = k + 1;
                            continue;
                        }
                    }
                }
                i = j + 1;
            }
            "const" => {
                // `const NAME: Ty = expr;` (skip `const fn`, handled by the
                // qualifier loop only for `fn` after `const`).
                if tokens.get(j + 1).is_some_and(|t| t.is_ident("fn")) {
                    if let Some(name) = tokens.get(j + 2) {
                        out.symbols.push(Symbol {
                            name: name.text.clone(),
                            kind: SymbolKind::Fn,
                            file: rel.to_string(),
                            line: name.line,
                            pos: name.pos,
                            vis,
                            parent,
                            field_type: None,
                        });
                    }
                    i = j + 2;
                } else if let Some(name) = tokens.get(j + 1) {
                    out.symbols.push(Symbol {
                        name: name.text.clone(),
                        kind: SymbolKind::Const,
                        file: rel.to_string(),
                        line: name.line,
                        pos: name.pos,
                        vis,
                        parent,
                        field_type: None,
                    });
                    i = j + 1;
                } else {
                    i = j + 1;
                }
            }
            "impl" => {
                // `impl [<…>] Type {` or `impl [<…>] Trait for Type {` —
                // the Self type is the last path segment before the body
                // (after `for` when present).
                let mut k = j + 1;
                if k < tokens.len() && tokens[k].is_punct("<") {
                    k = skip_generics(tokens, k);
                }
                let mut self_ty = String::new();
                let mut depth = 0i32;
                let mut in_where = false;
                while k < tokens.len() {
                    let tk = &tokens[k];
                    if depth == 0 && (tk.is_punct("{") || tk.is_punct(";")) {
                        break;
                    }
                    match tk.text.as_str() {
                        "<" | "(" | "[" => depth += 1,
                        ">" | ")" | "]" => depth -= 1,
                        ">>" => depth -= 2,
                        "for" if depth == 0 && tk.kind == TokKind::Ident => self_ty.clear(),
                        "where" if depth == 0 && tk.kind == TokKind::Ident => in_where = true,
                        _ if depth == 0 && !in_where && tk.kind == TokKind::Ident => {
                            self_ty = tk.text.clone();
                        }
                        _ => {}
                    }
                    k += 1;
                }
                if k < tokens.len() && tokens[k].is_punct("{") {
                    scopes.push(Scope { kind: ScopeKind::Impl(self_ty) });
                    derive_default = false;
                    i = k + 1;
                    continue;
                }
                i = k;
            }
            "use" => {
                let (next_i, names) = use_leaves(tokens, j + 1);
                if vis == Visibility::Pub {
                    for name in names {
                        out.symbols.push(Symbol {
                            name,
                            kind: SymbolKind::Reexport,
                            file: rel.to_string(),
                            line: kw.line,
                            pos: kw.pos,
                            vis,
                            parent: None,
                            field_type: None,
                        });
                    }
                }
                i = next_i;
            }
            "macro_rules" => {
                if tokens.get(j + 1).is_some_and(|t| t.is_punct("!")) {
                    if let Some(name) = tokens.get(j + 2) {
                        out.symbols.push(Symbol {
                            name: name.text.clone(),
                            kind: SymbolKind::Macro,
                            file: rel.to_string(),
                            line: name.line,
                            pos: name.pos,
                            vis,
                            parent: None,
                            field_type: None,
                        });
                    }
                }
                i = j + 1;
            }
            _ => {
                i = j + 1;
            }
        }
        derive_default = false;
    }
    out
}

/// Parses one `#[…]` attribute starting at token `i` (the `#`). Returns
/// the index after the attribute and whether it is a `derive(...)`
/// containing `Default`.
fn parse_attribute(tokens: &[Token], i: usize) -> (usize, bool) {
    let mut j = i + 1;
    // Inner attribute `#![…]`.
    if j < tokens.len() && tokens[j].is_punct("!") {
        j += 1;
    }
    if j >= tokens.len() || !tokens[j].is_punct("[") {
        return (i + 1, false);
    }
    let close = skip_balanced(tokens, j);
    let derive_default = tokens.get(j + 1).is_some_and(|t| t.is_ident("derive"))
        && tokens[j..close].iter().any(|t| t.is_ident("Default"));
    (close, derive_default)
}

/// Given token index `i` at an opening bracket (`(`/`[`/`{`), returns the
/// index one past its matching close. Returns `tokens.len()` when
/// unbalanced.
pub(crate) fn skip_balanced(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut k = i;
    while k < tokens.len() {
        match tokens[k].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
        k += 1;
    }
    tokens.len()
}

/// Skips a `<…>` generics list starting at `<`.
fn skip_generics(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut k = i;
    while k < tokens.len() {
        match tokens[k].text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            ">>" => {
                depth -= 2;
                if depth <= 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
        k += 1;
    }
    tokens.len()
}

/// Parses one named-struct field at token `i`; records it and returns the
/// index after the field's trailing comma (or closing position).
fn parse_field(
    tokens: &[Token],
    i: usize,
    rel: &str,
    out: &mut FileSymbols,
    scopes: &[Scope],
) -> usize {
    let parent = scopes.iter().rev().find_map(|s| match &s.kind {
        ScopeKind::StructBody(n) => Some(n.clone()),
        _ => None,
    });
    let mut j = i;
    let mut vis = Visibility::Private;
    if tokens[j].is_ident("pub") {
        vis = Visibility::Pub;
        j += 1;
        if j < tokens.len() && tokens[j].is_punct("(") {
            vis = Visibility::PubCrate;
            j = skip_balanced(tokens, j);
        }
    }
    let Some(name) = tokens.get(j) else { return tokens.len() };
    if name.kind != TokKind::Ident || !tokens.get(j + 1).is_some_and(|t| t.is_punct(":")) {
        // Not a field start (stray token); advance one to make progress.
        return i + 1;
    }
    // Type text: through the comma (or `}`) at depth 0.
    let mut k = j + 2;
    let mut depth = 0i32;
    let mut ty = String::new();
    while k < tokens.len() {
        let t = &tokens[k];
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth -= 1,
            "<" => depth += 1,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            "," if depth <= 0 => break,
            "}" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            _ => {}
        }
        ty.push_str(&t.text);
        k += 1;
    }
    out.symbols.push(Symbol {
        name: name.text.clone(),
        kind: SymbolKind::Field,
        file: rel.to_string(),
        line: name.line,
        pos: name.pos,
        vis,
        parent,
        field_type: Some(ty),
    });
    // Land on the comma's successor; a `}` is left for the main loop.
    if k < tokens.len() && tokens[k].is_punct(",") {
        k + 1
    } else {
        k
    }
}

/// Collects the declared type of a `static NAME: Ty = expr;` item as
/// whitespace-free text, starting at the expected `:` (token index `i`).
fn static_type_text(tokens: &[Token], i: usize) -> Option<String> {
    if !tokens.get(i).is_some_and(|t| t.is_punct(":")) {
        return None;
    }
    let mut k = i + 1;
    let mut depth = 0i32;
    let mut ty = String::new();
    while k < tokens.len() {
        let t = &tokens[k];
        match t.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            ">>" => depth -= 2,
            "=" | ";" if depth == 0 => break,
            _ => {}
        }
        ty.push_str(&t.text);
        k += 1;
    }
    (!ty.is_empty()).then_some(ty)
}

/// The names a `use` declaration binds, starting after the `use`
/// keyword: the last segment of each path (`as` renames keep the
/// original name; one level of `{…}` groups, which is what this
/// workspace uses). Returns the index after the terminating `;` too.
fn use_leaves(tokens: &[Token], i: usize) -> (usize, Vec<String>) {
    let mut names = Vec::new();
    let mut last: Option<String> = None;
    let mut k = i;
    while k < tokens.len() && !tokens[k].is_punct(";") {
        let t = &tokens[k];
        if t.is_ident("as") {
            // Skip the rename ident.
            k += 2;
        } else if t.kind == TokKind::Ident || t.is_punct("*") {
            last = Some(t.text.clone());
            k += 1;
        } else if t.is_punct("{") {
            // Group: each comma-separated leaf names one binding.
            let close = skip_balanced(tokens, k);
            let mut leaf: Option<String> = None;
            for t in &tokens[k + 1..close.saturating_sub(1)] {
                if (t.kind == TokKind::Ident && t.text != "as") || t.is_punct("*") {
                    leaf = Some(t.text.clone());
                } else if t.is_punct(",") {
                    names.extend(leaf.take());
                }
            }
            names.extend(leaf);
            last = None;
            k = close;
        } else {
            k += 1;
        }
    }
    names.extend(last);
    (k + 1, names)
}

/// The whole-workspace symbol index.
#[derive(Debug, Default)]
pub struct SymbolIndex {
    /// Every symbol, in (file, declaration) order. Indexed by `SymbolId`.
    pub symbols: Vec<Symbol>,
    /// Defining lib-crate name per symbol (parallel to `symbols`).
    pub crates: Vec<String>,
    /// Name → symbol ids, for reference resolution.
    pub by_name: BTreeMap<String, Vec<usize>>,
}

impl SymbolIndex {
    /// Adds one file's symbols under `crate_name`.
    pub fn add_file(&mut self, crate_name: &str, file_symbols: &FileSymbols) {
        for s in &file_symbols.symbols {
            let id = self.symbols.len();
            self.by_name.entry(s.name.clone()).or_default().push(id);
            self.symbols.push(s.clone());
            self.crates.push(crate_name.to_string());
        }
    }

    /// Symbols named `name`.
    pub fn named(&self, name: &str) -> impl Iterator<Item = (usize, &Symbol)> {
        self.by_name.get(name).into_iter().flatten().map(|&id| (id, &self.symbols[id]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn syms(src: &str) -> FileSymbols {
        scan_symbols("crates/x/src/lib.rs", &tokenize(&scan(src).blanked))
    }

    #[test]
    fn items_and_visibility() {
        let s = syms(
            "pub struct Foo { pub a: u64, b: usize }\n\
             pub(crate) fn helper() {}\n\
             pub const LIMIT: usize = 32 * 1024;\n\
             pub enum E { A, B }\n\
             mod inner { pub fn hidden() {} }\n",
        );
        let find = |n: &str| s.symbols.iter().find(|s| s.name == n).expect(n);
        assert_eq!(find("Foo").kind, SymbolKind::Struct);
        assert_eq!(find("Foo").vis, Visibility::Pub);
        assert_eq!(find("a").kind, SymbolKind::Field);
        assert_eq!(find("a").parent.as_deref(), Some("Foo"));
        assert_eq!(find("a").field_type.as_deref(), Some("u64"));
        assert_eq!(find("b").vis, Visibility::Private);
        assert_eq!(find("helper").vis, Visibility::PubCrate);
        assert_eq!(find("LIMIT").kind, SymbolKind::Const);
        assert_eq!(find("E").kind, SymbolKind::Enum);
        assert_eq!(find("hidden").vis, Visibility::Pub);
    }

    #[test]
    fn impl_methods_get_parent() {
        let s = syms(
            "struct C;\nimpl C { pub fn get(&self) -> u64 { 0 } }\n\
             impl Display for C { fn fmt(&self) {} }\n",
        );
        let get = s.symbols.iter().find(|s| s.name == "get").expect("get");
        assert_eq!(get.parent.as_deref(), Some("C"));
        assert_eq!(get.qualified(), "C::get");
        let fmt = s.symbols.iter().find(|s| s.name == "fmt").expect("fmt");
        assert_eq!(fmt.parent.as_deref(), Some("C"), "impl Trait for C: parent is C");
    }

    #[test]
    fn derive_default_recorded() {
        let s = syms("#[derive(Debug, Clone, Default)]\npub struct S { pub n: u64 }\nstruct T;\n");
        assert_eq!(s.derives_default, vec!["S".to_string()]);
    }

    #[test]
    fn pub_use_records_reexports() {
        let s = syms(
            "use nucache_common::{CacheStats, telemetry::Event};\n\
             pub use crate::config::{NuCacheConfig, policy::*};\n\
             pub use crate::stats::Stats as Renamed;\n",
        );
        let reexports: Vec<&str> = s
            .symbols
            .iter()
            .filter(|s| s.kind == SymbolKind::Reexport)
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(reexports, ["NuCacheConfig", "*", "Stats"], "private uses bind no re-export");
    }

    #[test]
    fn tokenizer_compound_ops() {
        let toks = tokenize("a += 1; b <<= 2; c != d; e..=f; x::y");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert!(texts.contains(&"+="));
        assert!(texts.contains(&"<<="));
        assert!(texts.contains(&"!="));
        assert!(texts.contains(&"..="));
        assert!(texts.contains(&"::"));
    }
}
