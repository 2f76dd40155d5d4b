//! Diagnostic types and rendering (rustc-style text and JSON).

use std::fmt;

/// How severe a finding is. Currently every lint reports `Error`; the
/// enum exists so future advisory lints can downgrade without changing
/// the output format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the audit (non-zero exit).
    Error,
    /// Reported but does not fail the audit.
    Warning,
}

impl Severity {
    /// Lower-case label used in both text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One lint finding, anchored to a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-indexed line number (0 for whole-file findings).
    pub line: usize,
    /// Lint name, e.g. `counter-dataflow`.
    pub lint: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
    /// Finding severity.
    pub severity: Severity,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: {}[{}]: {}", self.file, self.severity.label(), self.lint, self.message)
        } else {
            write!(
                f,
                "{}:{}: {}[{}]: {}",
                self.file,
                self.line,
                self.severity.label(),
                self.lint,
                self.message
            )
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders diagnostics as a JSON document for CI consumption:
/// `{"violations": N, "diagnostics": [{file, line, lint, severity, message}...]}`.
///
/// Hand-rolled because the crate is deliberately dependency-free.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n");
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    out.push_str(&format!("  \"violations\": {errors},\n"));
    out.push_str("  \"diagnostics\": [\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"lint\": \"{}\", \"severity\": \"{}\", \"message\": \"{}\"}}{}\n",
            json_escape(&d.file),
            d.line,
            d.lint,
            d.severity.label(),
            json_escape(&d.message),
            if i + 1 == diags.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            file: "crates/core/src/llc.rs".into(),
            line: 42,
            lint: "counter-dataflow",
            message: "counter is written but never read".into(),
            severity: Severity::Error,
        }
    }

    #[test]
    fn text_rendering_is_rustc_style() {
        assert_eq!(
            sample().to_string(),
            "crates/core/src/llc.rs:42: error[counter-dataflow]: counter is written but never read"
        );
    }

    #[test]
    fn whole_file_findings_omit_line() {
        let d = Diagnostic { line: 0, ..sample() };
        assert!(d.to_string().starts_with("crates/core/src/llc.rs: error["));
    }

    #[test]
    fn json_is_well_formed() {
        let j = to_json(&[sample()]);
        assert!(j.contains("\"violations\": 1"));
        assert!(j.contains("\"line\": 42"));
        assert!(j.contains("\"lint\": \"counter-dataflow\""));
        let quoted = Diagnostic { message: "say \"hi\"\n".into(), ..sample() };
        let j = to_json(&[quoted]);
        assert!(j.contains("say \\\"hi\\\"\\n"));
    }
}
