//! Workspace symbol index: tokens, items, fields and `#[cfg]` gate
//! regions.
//!
//! Built on top of [`crate::lexer`]: the blanked source (comments and
//! literals spaced out, char-for-char aligned with the original) is
//! tokenized, then a single forward pass extracts item declarations with
//! their visibility, enclosing module/impl, attached attributes and
//! `#[cfg]` gates. Because blanking preserves char offsets exactly, the
//! scanner can reach back into the *raw* source wherever literal text
//! matters (`feature = "…"` inside a cfg attribute).
//!
//! The index is deliberately lexical — no type checking, no macro
//! expansion. It is precise enough for the workspace's curated style
//! (items at module scope, test modules trailing) and the semantic lints
//! treat name collisions conservatively.

use crate::lexer::ScannedFile;
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
    /// Normalized cfg gates in effect at the declaration (sorted):
    /// `feature:name`, `test`, `debug_assertions`, or `opaque:<text>` for
    /// shapes the scanner does not model (`any(…)`, `not(…)`, …).
    pub gates: Vec<String>,
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

/// A contiguous char range governed by a `#[cfg(...)]` attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfgRegion {
    /// Char offset of the `#` of the attribute.
    pub start: usize,
    /// Char offset one past the governed item/statement.
    pub end: usize,
    /// Normalized gates (see [`Symbol::gates`]).
    pub gates: Vec<String>,
}

/// Everything the symbol scanner extracts from one file.
#[derive(Debug, Clone, Default)]
pub struct FileSymbols {
    /// Declared symbols in declaration order.
    pub symbols: Vec<Symbol>,
    /// Cfg-gated regions (item- and statement-level).
    pub cfg_regions: Vec<CfgRegion>,
    /// Struct names carrying `#[derive(..)]` with `Default`.
    pub derives_default: Vec<String>,
}

impl FileSymbols {
    /// Normalized gates in effect at char offset `pos` (sorted, deduped):
    /// the union of every covering cfg region.
    pub fn gates_at(&self, pos: usize) -> Vec<String> {
        let mut gates: Vec<String> = self
            .cfg_regions
            .iter()
            .filter(|r| r.start <= pos && pos < r.end)
            .flat_map(|r| r.gates.iter().cloned())
            .collect();
        gates.sort();
        gates.dedup();
        gates
    }
}

/// Parses the interior of `cfg(...)` (raw source text, literals intact)
/// into normalized gates.
fn parse_cfg_gates(inner: &str) -> Vec<String> {
    let squashed: String = inner.chars().filter(|c| !c.is_whitespace()).collect();
    if let Some(feat) = squashed.strip_prefix("feature=\"").and_then(|r| r.strip_suffix('"')) {
        return vec![format!("feature:{feat}")];
    }
    match squashed.as_str() {
        "test" => vec!["test".to_string()],
        "debug_assertions" => vec!["debug_assertions".to_string()],
        _ => vec![format!("opaque:{squashed}")],
    }
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

/// Attributes accumulated in front of the next item.
#[derive(Debug, Default, Clone)]
struct Pending {
    gates: Vec<String>,
    derive_default: bool,
}

/// Scans one file into its symbol set.
///
/// `rel` is the workspace-relative path; `source` the raw text; `scanned`
/// the lexer output for the same text.
pub fn scan_symbols(rel: &str, source: &str, scanned: &ScannedFile) -> FileSymbols {
    let raw: Vec<char> = source.chars().collect();
    let tokens = tokenize(&scanned.blanked);
    let mut out = FileSymbols::default();
    let mut scopes: Vec<Scope> = vec![Scope { kind: ScopeKind::Module }];
    // Scopes opened per brace, aligned with `{`/`}` nesting. Each `{`
    // pushes exactly one scope; each `}` pops one.
    let mut pending = Pending::default();
    let mut i = 0usize;

    while i < tokens.len() {
        let t = &tokens[i];
        match (&t.kind, t.text.as_str()) {
            (TokKind::Punct, "#") => {
                let (next_i, region, derive_default) = parse_attribute(&tokens, i, &raw);
                if let Some(r) = region {
                    pending.gates.extend(r.gates.iter().cloned());
                    out.cfg_regions.push(r);
                }
                pending.derive_default |= derive_default;
                i = next_i;
                continue;
            }
            (TokKind::Punct, "{") => {
                scopes.push(Scope { kind: ScopeKind::Opaque });
                pending = Pending::default();
                i += 1;
                continue;
            }
            (TokKind::Punct, "}") => {
                if scopes.len() > 1 {
                    scopes.pop();
                }
                pending = Pending::default();
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
            i = parse_field(&tokens, i, rel, &mut out, &scopes, &pending);
            pending = Pending::default();
            continue;
        }
        if !item_scope || t.kind != TokKind::Ident {
            pending = Pending::default();
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
                j = skip_balanced(&tokens, j);
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
        let gates = effective_gates(&out, kw.pos);
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
                        gates,
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
                        gates,
                        field_type: None,
                    });
                    if pending.derive_default {
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
                        pending = Pending::default();
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
                        .then(|| static_type_text(&tokens, j + 2))
                        .flatten();
                    out.symbols.push(Symbol {
                        name: name.text.clone(),
                        kind,
                        file: rel.to_string(),
                        line: name.line,
                        pos: name.pos,
                        vis,
                        parent: parent.clone(),
                        gates,
                        field_type,
                    });
                    if kind == SymbolKind::Mod {
                        // `mod name {` opens a module scope; `mod name;` is
                        // just a declaration.
                        if tokens.get(j + 2).is_some_and(|t| t.is_punct("{")) {
                            scopes.push(Scope { kind: ScopeKind::Module });
                            pending = Pending::default();
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
                            pending = Pending::default();
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
                            gates,
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
                        gates,
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
                    k = skip_generics(&tokens, k);
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
                    pending = Pending::default();
                    i = k + 1;
                    continue;
                }
                i = k;
            }
            "use" => {
                let (next_i, names) = use_leaves(&tokens, j + 1);
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
                            gates: gates.clone(),
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
                            gates,
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
        pending = Pending::default();
    }
    out
}

/// Gates in effect at `pos` per the regions recorded so far.
fn effective_gates(out: &FileSymbols, pos: usize) -> Vec<String> {
    out.gates_at(pos)
}

/// Parses one `#[…]` attribute starting at token `i` (the `#`). Returns
/// the index after the attribute, a cfg region when the attribute is a
/// `cfg(...)`, and whether it is a `derive(...)` containing `Default`.
fn parse_attribute(tokens: &[Token], i: usize, raw: &[char]) -> (usize, Option<CfgRegion>, bool) {
    let start_pos = tokens[i].pos;
    let mut j = i + 1;
    // Inner attribute `#![…]`.
    if j < tokens.len() && tokens[j].is_punct("!") {
        j += 1;
    }
    if j >= tokens.len() || !tokens[j].is_punct("[") {
        return (i + 1, None, false);
    }
    let close = skip_balanced(tokens, j);
    let name = tokens.get(j + 1).map(|t| t.text.clone()).unwrap_or_default();
    let mut region = None;
    let mut derive_default = false;
    if name == "cfg" && tokens.get(j + 2).is_some_and(|t| t.is_punct("(")) {
        // Gate text comes from the RAW source: the blanked copy has the
        // feature-name string spaced out.
        let open = tokens[j + 2].pos;
        let close_paren =
            tokens[close - 2..close].iter().rev().find(|t| t.is_punct(")")).map_or(open, |t| t.pos);
        let inner: String = raw[open + 1..close_paren.max(open + 1)].iter().collect();
        let gates = parse_cfg_gates(&inner);
        let end = governed_extent(tokens, close, raw.len());
        region = Some(CfgRegion { start: start_pos, end, gates });
    }
    if name == "derive" {
        derive_default =
            tokens[j..close].iter().any(|t| t.kind == TokKind::Ident && t.text == "Default");
    }
    (close, region, derive_default)
}

/// Extent of the item/statement governed by an attribute ending at token
/// index `after` (one past the `]`): through the matching `}` when a
/// brace opens first, else through the terminating `;` or `,`.
fn governed_extent(tokens: &[Token], after: usize, raw_len: usize) -> usize {
    let mut k = after;
    // Skip stacked attributes.
    while k < tokens.len() && tokens[k].is_punct("#") {
        let mut j = k + 1;
        if j < tokens.len() && tokens[j].is_punct("!") {
            j += 1;
        }
        if j < tokens.len() && tokens[j].is_punct("[") {
            k = skip_balanced(tokens, j);
        } else {
            break;
        }
    }
    let mut depth = 0i32;
    while k < tokens.len() {
        let t = &tokens[k];
        match t.text.as_str() {
            "{" | "(" | "[" => {
                if t.is_punct("{") && depth == 0 {
                    // Governed block: through its matching close.
                    let end = skip_balanced(tokens, k);
                    return tokens.get(end - 1).map_or(raw_len, |t| t.pos + t.text.chars().count());
                }
                depth += 1;
            }
            "}" | ")" | "]" => {
                if depth == 0 {
                    // Field at end of struct body without trailing comma.
                    return t.pos;
                }
                depth -= 1;
            }
            ";" | "," if depth == 0 => {
                return t.pos + 1;
            }
            _ => {}
        }
        k += 1;
    }
    raw_len
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
    pending: &Pending,
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
    let gates = {
        let mut g = out.gates_at(name.pos);
        g.extend(pending.gates.iter().cloned());
        g.sort();
        g.dedup();
        g
    };
    out.symbols.push(Symbol {
        name: name.text.clone(),
        kind: SymbolKind::Field,
        file: rel.to_string(),
        line: name.line,
        pos: name.pos,
        vis,
        parent,
        gates,
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
        scan_symbols("crates/x/src/lib.rs", src, &scan(src))
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
    fn cfg_gates_cover_items_and_statements() {
        let src = "\
#[cfg(feature = \"debug_invariants\")]\npub fn gated() {}\n\
pub fn open() {}\n\
fn body() {\n    #[cfg(feature = \"debug_invariants\")]\n    audit.enable();\n    run();\n}\n\
#[cfg(test)]\nmod tests { fn t() {} }\n";
        let s = syms(src);
        let gated = s.symbols.iter().find(|s| s.name == "gated").expect("gated");
        assert_eq!(gated.gates, vec!["feature:debug_invariants".to_string()]);
        let open = s.symbols.iter().find(|s| s.name == "open").expect("open");
        assert!(open.gates.is_empty());
        // Statement-level gate: the `audit.enable()` call is covered, the
        // following `run()` is not.
        let enable_pos = src.find("audit.enable").expect("site");
        assert_eq!(s.gates_at(enable_pos), vec!["feature:debug_invariants".to_string()]);
        let run_pos = src.find("run()").expect("site");
        assert!(s.gates_at(run_pos).is_empty());
        let t = s.symbols.iter().find(|s| s.name == "t").expect("t");
        assert_eq!(t.gates, vec!["test".to_string()]);
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
