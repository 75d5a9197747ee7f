//! Inline suppression directives.
//!
//! Two forms, both living in comments and both requiring a reason:
//!
//! ```text
//! // rpas-lint: allow(F1, reason = "exact-zero sparsity skip is a no-op")
//! // rpas-lint: allow-file(D2, reason = "wall-clock timing feeds obs only")
//! ```
//!
//! `allow(...)` applies to its own line when the comment trails code, and
//! otherwise to the next line that contains code (intervening comments and
//! blank lines are skipped). `allow-file(...)` applies to the whole file.
//! Several rules may be listed: `allow(P1, F1, reason = "...")`. A
//! directive with a missing/empty reason or an unknown rule id is itself a
//! `LINT` error — suppressions must say *why*, or they rot.

use crate::config::RULE_IDS;
use crate::lexer::{Comment, Token};
use crate::report::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

/// Parsed suppressions for one file.
#[derive(Debug, Default)]
pub(crate) struct Suppressions {
    /// Rules allowed for the whole file.
    pub file_level: BTreeSet<String>,
    /// Line → rules allowed on that line.
    pub line_level: BTreeMap<u32, BTreeSet<String>>,
}

impl Suppressions {
    /// Is `rule` suppressed at `line`?
    pub(crate) fn allows(&self, rule: &str, line: u32) -> bool {
        self.file_level.contains(rule)
            || self.line_level.get(&line).is_some_and(|s| s.contains(rule))
    }
}

/// Scan comments for directives. `tokens` is used to resolve which line a
/// standalone directive protects (the next line holding real code).
pub(crate) fn collect(
    rel: &str,
    comments: &[Comment],
    tokens: &[Token],
) -> (Suppressions, Vec<Diagnostic>) {
    let mut sup = Suppressions::default();
    let mut diags = Vec::new();
    let token_lines: BTreeSet<u32> = tokens.iter().map(|t| t.line).collect();

    for c in comments {
        // A directive must open the comment: `// rpas-lint: ...` (also the
        // `//!`, `///`, and `/* ... */` forms). A marker buried mid-prose,
        // or nested behind a second `//` in a doc-comment example, is not a
        // directive — that keeps documentation *about* suppressions from
        // suppressing anything.
        let Some(body) = directive_body(&c.text) else { continue };
        match parse_directive(body) {
            Ok((rules, whole_file)) => {
                if whole_file {
                    sup.file_level.extend(rules);
                } else {
                    let target = if c.trailing {
                        Some(c.line)
                    } else {
                        // First code-bearing line after the comment.
                        token_lines.range(c.line + 1..).next().copied()
                    };
                    match target {
                        Some(line) => {
                            sup.line_level.entry(line).or_default().extend(rules);
                        }
                        None => diags.push(Diagnostic::error(
                            "LINT",
                            rel,
                            c.line,
                            "suppression directive has no following code line to apply to",
                        )),
                    }
                }
            }
            Err(msg) => diags.push(Diagnostic::error(
                "LINT",
                rel,
                c.line,
                format!("malformed suppression: {msg}"),
            )),
        }
    }
    (sup, diags)
}

/// Strip the comment opener (`//`, `///`, `//!`, `/*`, `/**`, `/*!`) and
/// return the text after a leading `rpas-lint:` marker, or `None` when the
/// comment does not begin with one.
fn directive_body(comment: &str) -> Option<&str> {
    let rest = comment
        .strip_prefix("//")
        .or_else(|| comment.strip_prefix("/*"))?;
    let rest = rest.strip_prefix(['!', '/', '*']).unwrap_or(rest);
    rest.trim_start().strip_prefix("rpas-lint:")
}

/// Parse `allow(R1, R2, reason = "...")` or `allow-file(...)` from the
/// directive body. Returns the rule list and whether it is file-scoped.
fn parse_directive(body: &str) -> Result<(Vec<String>, bool), String> {
    let body = body.trim_start();
    let (whole_file, rest) = if let Some(r) = body.strip_prefix("allow-file") {
        (true, r)
    } else if let Some(r) = body.strip_prefix("allow") {
        (false, r)
    } else {
        return Err("expected `allow(...)` or `allow-file(...)`".to_string());
    };
    let rest = rest.trim_start();
    let inner = rest
        .strip_prefix('(')
        .ok_or("expected `(` after allow")?;
    let close = find_close_paren(inner).ok_or("missing closing `)`")?;
    let inner = &inner[..close];

    let mut rules = Vec::new();
    let mut reason: Option<String> = None;
    for part in split_top_level_commas(inner) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some(r) = part.strip_prefix("reason") {
            let r = r.trim_start();
            let r = r.strip_prefix('=').ok_or("expected `=` after reason")?.trim_start();
            let r = r
                .strip_prefix('"')
                .and_then(|r| r.rfind('"').map(|end| &r[..end]))
                .ok_or("reason must be a double-quoted string")?;
            if r.trim().is_empty() {
                return Err("reason must not be empty".to_string());
            }
            reason = Some(r.to_string());
        } else {
            if !RULE_IDS.contains(&part) {
                return Err(format!("unknown rule id `{part}`"));
            }
            rules.push(part.to_string());
        }
    }
    if rules.is_empty() {
        return Err("no rule ids listed".to_string());
    }
    if reason.is_none() {
        return Err("reason is mandatory: allow(RULE, reason = \"...\")".to_string());
    }
    Ok((rules, whole_file))
}

/// Index of the `)` closing the directive, skipping over a quoted reason
/// (which may itself contain parens).
fn find_close_paren(s: &str) -> Option<usize> {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            ')' if !in_str => return Some(i),
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    None
}

/// Split on commas that are not inside the quoted reason string.
fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> (Suppressions, Vec<Diagnostic>) {
        let l = lex(src);
        collect("f.rs", &l.comments, &l.tokens)
    }

    #[test]
    fn standalone_directive_targets_next_code_line() {
        let (s, d) = run(
            "// rpas-lint: allow(F1, reason = \"bitwise identity\")\n// more prose\n\nlet x = a == 0.0;\n",
        );
        assert!(d.is_empty(), "{d:?}");
        assert!(s.allows("F1", 4));
        assert!(!s.allows("F1", 1));
    }

    #[test]
    fn trailing_directive_targets_own_line() {
        let (s, d) = run("let x = a == 0.0; // rpas-lint: allow(F1, reason = \"exact zero\")\n");
        assert!(d.is_empty(), "{d:?}");
        assert!(s.allows("F1", 1));
    }

    #[test]
    fn file_level_and_multi_rule() {
        let (s, d) =
            run("// rpas-lint: allow-file(D2, P1, reason = \"bench-only timing module\")\nfn f() {}\n");
        assert!(d.is_empty(), "{d:?}");
        assert!(s.allows("D2", 99));
        assert!(s.allows("P1", 1));
        assert!(!s.allows("F1", 1));
    }

    #[test]
    fn reason_is_mandatory() {
        let (_, d) = run("// rpas-lint: allow(F1)\nlet x = 1;\n");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("reason is mandatory"), "{}", d[0].message);
        let (_, d) = run("// rpas-lint: allow(F1, reason = \"  \")\nlet x = 1;\n");
        assert!(d[0].message.contains("empty"));
    }

    #[test]
    fn unknown_rule_rejected() {
        let (_, d) = run("// rpas-lint: allow(Z9, reason = \"nope\")\nlet x = 1;\n");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("unknown rule id"));
    }

    #[test]
    fn reason_may_contain_parens_and_commas() {
        let (s, d) = run(
            "// rpas-lint: allow(P1, reason = \"indexing (r, c), bounds asserted above\")\nlet x = a[0];\n",
        );
        assert!(d.is_empty(), "{d:?}");
        assert!(s.allows("P1", 2));
    }

    #[test]
    fn marker_must_open_the_comment() {
        // Mid-prose mention: not a directive, not an error.
        let (s, d) = run("// see rpas-lint: allow(F1, reason = \"x\") for syntax\nlet x = 1;\n");
        assert!(d.is_empty() && s.line_level.is_empty());
        // Doc-comment example quoting a directive behind a second `//`.
        let (s, d) = run("//! // rpas-lint: allow-file(D2, reason = \"example\")\nlet x = 1;\n");
        assert!(d.is_empty() && s.file_level.is_empty());
        // Block-comment form still works.
        let (s, d) = run("let a = b == 0.0; /* rpas-lint: allow(F1, reason = \"exact\") */\n");
        assert!(d.is_empty(), "{d:?}");
        assert!(s.allows("F1", 1));
    }

    #[test]
    fn directives_inside_strings_are_ignored() {
        let (s, d) = run("let x = \"rpas-lint: allow(F1, reason = \\\"no\\\")\";\n");
        assert!(d.is_empty());
        assert!(s.file_level.is_empty() && s.line_level.is_empty());
    }
}
