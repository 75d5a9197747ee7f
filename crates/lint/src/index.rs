//! The obs emit-site index E1 runs over: each call shaped like the
//! `rpas_obs::Obs` emit surface (`.info/.warn/.error/.debug(span, name,
//! build)`, `.emit(Level, span, name, build)`, `.counter` /
//! `.gauge(span, metric, v)`, `.span(span, name)`), with the literal or
//! dynamic status of its span and event-name arguments. Extraction is
//! per file and token-level ([`emit_sites`], called from the per-file
//! pass in [`crate::rules`]); the check against the registry is the one
//! cross-file step ([`crate::semantic`]).

use crate::lexer::{TokKind, Token};
use crate::suppress::Suppressions;

/// One statically-extracted obs emit site. A `None` span or event means
/// that argument is not a plain string literal (dynamic): the E1 rule
/// then falls back to prefix/suffix matching against the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmitSite {
    /// File the call lives in.
    pub rel: String,
    /// 1-based line of the method name token.
    pub line: u32,
    /// The emit-surface method called (`info`, `emit`, `counter`, …).
    pub method: String,
    /// Literal span argument, unquoted; `None` when dynamic.
    pub span: Option<String>,
    /// Literal event name, unquoted; `None` when dynamic. For
    /// `counter`/`gauge`/`span` calls the event name is implied by the
    /// method (`counter`, `gauge`, `span_close`) and always literal.
    pub event: Option<String>,
    /// The site carries an `allow(E1, …)`: it stays in the inventory
    /// `--write-events` freezes but is not checked against the registry.
    pub allowed: bool,
}

impl EmitSite {
    /// The full `span/event` registry name, when both sides are literal.
    pub fn full_name(&self) -> Option<String> {
        match (&self.span, &self.event) {
            (Some(s), Some(e)) => Some(format!("{s}/{e}")),
            _ => None,
        }
    }
}

/// Extract every obs emit site in one file's tokens, skipping test code.
/// The patterns are shape-based (method name + argument count + a `Level`
/// guard for `.emit`), which is unambiguous against the rest of the
/// workspace: no other API shares these shapes with string-literal
/// span/name arguments.
pub fn emit_sites(
    rel: &str,
    toks: &[Token],
    in_test: impl Fn(u32) -> bool,
    sup: &Suppressions,
) -> Vec<EmitSite> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_punct(".") {
            continue;
        }
        let Some(m) = toks.get(i + 1) else { continue };
        if m.kind != TokKind::Ident || !toks.get(i + 2).is_some_and(|t| t.is_punct("(")) {
            continue;
        }
        if in_test(m.line) {
            continue;
        }
        let Some(args) = call_args(toks, i + 2) else { continue };
        let lit = |k: usize| args.get(k).and_then(|&(s, e)| literal_str(toks, s, e));
        let has_level = |k: usize| {
            args.get(k)
                .is_some_and(|&(s, e)| toks[s..e].iter().any(|t| t.is_ident("Level")))
        };
        let site = match m.text.as_str() {
            "info" | "warn" | "error" | "debug" if args.len() == 3 => {
                let (span, event) = (lit(0), lit(1));
                // A fully-dynamic 3-arg call is far more likely to be an
                // unrelated method than an uncheckable emit — skip it.
                if span.is_none() && event.is_none() {
                    continue;
                }
                (span, event)
            }
            "emit" if args.len() == 4 && has_level(0) => (lit(1), lit(2)),
            "counter" | "gauge" if args.len() == 3 => (lit(0), Some(m.text.clone())),
            "span" if args.len() == 2 => {
                let span = lit(0);
                if span.is_none() && lit(1).is_none() {
                    continue;
                }
                (span, Some("span_close".to_string()))
            }
            _ => continue,
        };
        out.push(EmitSite {
            rel: rel.to_string(),
            line: m.line,
            method: m.text.clone(),
            span: site.0,
            event: site.1,
            allowed: sup.allows("E1", m.line),
        });
    }
    out
}

/// With `toks[open]` being the `(` of a call, split the argument list at
/// top level into token ranges (exclusive end). Returns `None` when the
/// call is unterminated.
fn call_args(toks: &[Token], open: usize) -> Option<Vec<(usize, usize)>> {
    let mut args = Vec::new();
    let mut depth = 0i32;
    let mut start = open + 1;
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        if j > start {
                            args.push((start, j));
                        }
                        return Some(args);
                    }
                }
                "," if depth == 1 => {
                    args.push((start, j));
                    start = j + 1;
                }
                // `|a, b|` closure parameter commas would split at depth
                // 1; obs build closures take one argument, and any call
                // with a multi-param closure just fails the argc guard.
                _ => {}
            }
        }
        j += 1;
    }
    None
}

/// If the argument range is exactly one plain string literal, return its
/// unquoted text. Raw/byte strings and anything composite count as
/// dynamic.
fn literal_str(toks: &[Token], start: usize, end: usize) -> Option<String> {
    if end != start + 1 {
        return None;
    }
    let t = &toks[start];
    if t.kind != TokKind::Str {
        return None;
    }
    let inner = t.text.strip_prefix('"')?.strip_suffix('"')?;
    // Event names never need escapes; a literal that uses them is out of
    // the naming contract and treated as dynamic.
    if inner.contains('\\') {
        return None;
    }
    Some(inner.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::rules::analyze_rust_file;

    fn sites_in(rel: &str, src: &str) -> Vec<EmitSite> {
        analyze_rust_file(rel, src, &Config::default()).emit_sites
    }

    fn sites(src: &str) -> Vec<(String, Option<String>, Option<String>)> {
        sites_in("crates/core/src/x.rs", src)
            .into_iter()
            .map(|s| (s.method, s.span, s.event))
            .collect()
    }

    #[test]
    fn level_wrappers_extract_span_and_event() {
        let got = sites("fn f(obs: &Obs) { obs.info(\"plan\", \"decision\", |f| f.num(\"t\", 1.0)); }");
        assert_eq!(
            got,
            vec![("info".into(), Some("plan".into()), Some("decision".into()))]
        );
    }

    #[test]
    fn emit_requires_level_guard_and_four_args() {
        let got = sites("fn f() { obs.emit(Level::Warn, \"sim\", \"step\", |f| f.raw(\"\")); h.emit(obs, \"telemetry\", name); }");
        // The 3-arg Histogram::emit call must not match the Obs::emit shape.
        assert_eq!(got, vec![("emit".into(), Some("sim".into()), Some("step".into()))]);
    }

    #[test]
    fn counter_gauge_and_span_imply_event_names() {
        let got = sites(
            "fn f() { obs.counter(\"fleet\", \"ticks\", 1.0); obs.gauge(\"slo\", m, v); let _t = obs.span(\"backtest\", \"fit\"); tel.counter(\"supervisor.panics\"); }",
        );
        assert_eq!(
            got,
            vec![
                ("counter".into(), Some("fleet".into()), Some("counter".into())),
                ("gauge".into(), Some("slo".into()), Some("gauge".into())),
                ("span".into(), Some("backtest".into()), Some("span_close".into())),
            ]
        );
    }

    #[test]
    fn dynamic_args_become_none_sides() {
        let got = sites("fn f(s: &str) { obs.emit(Level::Info, s, \"histogram\", |f| f.raw(\"\")); }");
        assert_eq!(got, vec![("emit".into(), None, Some("histogram".into()))]);
    }

    #[test]
    fn test_code_and_unrelated_calls_are_skipped() {
        let src = "fn f(x: &T) { x.update(a, b, c); }\n#[cfg(test)]\nmod tests { fn t() { obs.info(\"x\", \"y\", |f| f.raw(\"\")); } }\n";
        assert!(sites(src).is_empty());
        let test_file = "fn t() { obs.info(\"x\", \"y\", |f| f.raw(\"\")); }";
        assert!(sites_in("crates/core/tests/e2e.rs", test_file).is_empty());
    }

    #[test]
    fn allowed_and_exempt_sites() {
        // An allow(E1) keeps the site in the inventory, flagged; the obs
        // crate's own pass-through wrappers are not emit sites at all.
        let src = "fn f() {\n  obs.info(\"a\", \"b\", |f| f.raw(\"\")); // rpas-lint: allow(E1, reason = \"test\")\n  obs.info(\"a\", \"c\", |f| f.raw(\"\"));\n}\n";
        let got: Vec<bool> = sites_in("crates/core/src/x.rs", src).iter().map(|s| s.allowed).collect();
        assert_eq!(got, vec![true, false]);
        assert!(sites_in("crates/obs/src/handle.rs", src).is_empty());
    }
}
