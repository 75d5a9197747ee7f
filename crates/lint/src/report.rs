//! Diagnostics, their stable report order, and the human `file:line`
//! renderer.

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: fails only under `--deny-warnings` (e.g. stale baseline).
    Warning,
    /// Violation: always fails the run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding, anchored to a file and line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule identifier (one of [`crate::config::RULE_IDS`]).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line (0 for whole-file findings).
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// Error or warning.
    pub severity: Severity,
}

impl Diagnostic {
    /// A new error-severity diagnostic.
    pub fn error(rule: &'static str, file: &str, line: u32, message: impl Into<String>) -> Self {
        Self { rule, file: file.to_string(), line, message: message.into(), severity: Severity::Error }
    }

    /// A new warning-severity diagnostic.
    pub fn warning(rule: &'static str, file: &str, line: u32, message: impl Into<String>) -> Self {
        Self {
            rule,
            file: file.to_string(),
            line,
            message: message.into(),
            severity: Severity::Warning,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}:{}: {}",
            self.severity, self.rule, self.file, self.line, self.message
        )
    }
}

/// Sort diagnostics into the stable report order: errors before warnings,
/// then by file, line, rule, message.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.file.cmp(&b.file))
            .then_with(|| a.line.cmp(&b.line))
            .then_with(|| a.rule.cmp(b.rule))
            .then_with(|| a.message.cmp(&b.message))
    });
}

/// Render the human report. Diagnostics must already be sorted.
pub fn render_human(diags: &[Diagnostic], files_scanned: usize) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    let warnings = diags.len() - errors;
    out.push_str(&format!(
        "rpas-lint: {files_scanned} files scanned, {errors} errors, {warnings} warnings\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_line_has_file_line_anchor() {
        let d = Diagnostic::error("F1", "crates/core/src/plan.rs", 12, "float equality");
        assert_eq!(d.to_string(), "error[F1]: crates/core/src/plan.rs:12: float equality");
    }

    #[test]
    fn sort_puts_errors_first_then_path_order() {
        let mut v = vec![
            Diagnostic::warning("P1", "b.rs", 1, "w"),
            Diagnostic::error("D2", "z.rs", 9, "e2"),
            Diagnostic::error("O1", "a.rs", 3, "e1"),
        ];
        sort(&mut v);
        assert_eq!(v[0].file, "a.rs");
        assert_eq!(v[1].file, "z.rs");
        assert_eq!(v[2].severity, Severity::Warning);
    }
}
