//! The per-file, token-level pass: D2 (nondeterminism sources), O1
//! (stdout/stderr discipline), P1 (panic-site census), F1 (float
//! equality), E1 (events named through the catalogue, not by literal).
//!
//! Scope conventions shared by the rules:
//! - *test code* is any file under a `tests/` directory plus every region
//!   under a `#[cfg(test)]` attribute;
//! - *library code* (the P1 census scope) is `crates/<c>/src/**` and the
//!   root `src/**`, excluding `bin/` subtrees and test code.

use crate::config::Config;
use crate::lexer::{is_keyword, lex, TokKind, Token};
use crate::report::Diagnostic;
use crate::suppress;

/// Categories counted by the P1 panic-site census.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum P1Cat {
    /// `.unwrap()` call.
    Unwrap,
    /// `.expect(...)` call.
    Expect,
    /// `panic!(...)` invocation.
    Panic,
    /// Slice/array indexing expression `expr[...]`.
    Index,
}

impl P1Cat {
    /// Stable lower-case name used in the baseline file and fixtures.
    pub fn name(self) -> &'static str {
        match self {
            P1Cat::Unwrap => "unwrap",
            P1Cat::Expect => "expect",
            P1Cat::Panic => "panic",
            P1Cat::Index => "index",
        }
    }
}

/// One counted P1 site.
#[derive(Debug, Clone, Copy)]
pub struct P1Site {
    /// 1-based line.
    pub line: u32,
    /// Which census category.
    pub cat: P1Cat,
}

/// Result of analysing one Rust source file.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Rule violations (and malformed suppressions).
    pub diagnostics: Vec<Diagnostic>,
    /// P1 census sites (empty for non-library files).
    pub p1_sites: Vec<P1Site>,
}

/// Is this file test code by path alone? Matches both the workspace-level
/// `tests/` tree and per-crate `crates/<c>/tests/` trees.
pub(crate) fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

/// Is this file in the P1 library-census scope?
pub(crate) fn is_library_path(rel: &str) -> bool {
    let under_src = |s: &str| {
        s.strip_prefix("src/").is_some_and(|rest| !rest.starts_with("bin/"))
    };
    if let Some(rest) = rel.strip_prefix("crates/") {
        match rest.split_once('/') {
            Some((_, sub)) => under_src(sub),
            None => false,
        }
    } else {
        under_src(rel)
    }
}

/// Analyse one Rust file. `rel` is the workspace-relative path with `/`
/// separators — every scope decision keys off it.
pub fn analyze_rust_file(rel: &str, src: &str, cfg: &Config) -> FileAnalysis {
    let lexed = lex(src);
    let (sup, mut diags) = suppress::collect(rel, &lexed.comments, &lexed.tokens);
    let test_lines = test_regions(&lexed.tokens);
    let file_is_test = is_test_path(rel);
    let in_test = |line: u32| file_is_test || test_lines.iter().any(|r| r.contains(line));

    let mut out = FileAnalysis::default();
    let toks = &lexed.tokens;
    let count_p1 = is_library_path(rel) && cfg.is_enabled("P1");
    let check_e1 = cfg.is_enabled("E1") && !Config::path_in(rel, &cfg.e1_exempt_prefixes);

    for i in 0..toks.len() {
        let t = &toks[i];
        let line = t.line;
        let next = toks.get(i + 1);

        // D2: nondeterminism sources in non-test code. Clock and thread
        // identity reads are allowed in obs/bench (timing is their job);
        // hash collections are allowed nowhere.
        if cfg.is_enabled("D2") && !in_test(line) && t.kind == TokKind::Ident {
            let clocks_ok = Config::path_in(rel, &cfg.d2_allow_prefixes);
            let found: Option<&str> = match t.text.as_str() {
                "HashMap" | "HashSet" => {
                    Some("HashMap/HashSet iteration order is nondeterministic (use BTreeMap/BTreeSet)")
                }
                _ if clocks_ok => None,
                "SystemTime" => Some("std::time::SystemTime reads the wall clock"),
                "Instant" => Some("std::time::Instant reads the monotonic clock"),
                "thread" => (next.is_some_and(|n| n.is_punct("::"))
                    && toks.get(i + 2).is_some_and(|n| n.is_ident("current")))
                .then_some("thread::current() identity varies across runs"),
                _ => None,
            };
            if let Some(why) = found {
                if !sup.allows("D2", line) {
                    diags.push(Diagnostic::error(
                        "D2",
                        rel,
                        line,
                        format!(
                            "nondeterminism source `{}`: {why}; seeded runs must be bit-identical",
                            t.text
                        ),
                    ));
                }
            }
        }

        // O1: stdout/stderr discipline. Macro = ident + `!` + open bracket.
        if cfg.is_enabled("O1") && t.kind == TokKind::Ident {
            let is_macro = next.is_some_and(|n| n.is_punct("!"))
                && toks
                    .get(i + 2)
                    .is_some_and(|n| n.is_punct("(") || n.is_punct("[") || n.is_punct("{"));
            if is_macro {
                let viol = match t.text.as_str() {
                    "eprintln" | "eprint" => {
                        // stderr is reserved for the obs stderr sink, even in
                        // tests (diagnostics must stay machine-reconstructable).
                        !Config::path_in(rel, &cfg.o1_stderr_allow_prefixes)
                    }
                    "println" | "print" => {
                        !Config::path_in(rel, &cfg.o1_stdout_allow_prefixes) && !in_test(line)
                    }
                    _ => false,
                };
                if viol && !sup.allows("O1", line) {
                    diags.push(Diagnostic::error(
                        "O1",
                        rel,
                        line,
                        format!(
                            "`{}!` outside crates/obs and the CLI output layer: route diagnostics through an rpas_obs::Obs handle",
                            t.text
                        ),
                    ));
                }
            }
        }

        // P1: panic-site census over library code.
        if count_p1 && !in_test(line) && !sup.allows("P1", line) {
            let cat = p1_category(toks, i);
            if let Some(cat) = cat {
                out.p1_sites.push(P1Site { line, cat });
            }
        }

        // E1: the two string-taking obs signatures (`.info(span, name, …)`,
        // `Event::new(level, span, name)`) called with a literal. Test
        // code included: a name a test makes up is a name no consumer
        // can look up in the catalogue.
        if check_e1 && t.kind == TokKind::Ident && next.is_some_and(|n| n.is_punct("(")) {
            let before = |k: usize| i.checked_sub(k).and_then(|j| toks.get(j));
            let callee = match t.text.as_str() {
                "info" if before(1).is_some_and(|p| p.is_punct(".")) => Some(".info(…)"),
                "new"
                    if before(1).is_some_and(|p| p.is_punct("::"))
                        && before(2).is_some_and(|p| p.is_ident("Event")) =>
                {
                    Some("Event::new(…)")
                }
                _ => None,
            };
            if let Some(callee) = callee {
                if string_literal_arg(toks, i + 1) && !sup.allows("E1", line) {
                    diags.push(Diagnostic::error(
                        "E1",
                        rel,
                        line,
                        format!(
                            "`{callee}` with a string-literal span/name: declare the event in rpas_obs::catalog and use Obs::emit / Event::of"
                        ),
                    ));
                }
            }
        }

        // F1: float equality in numeric crates (test code included — exact
        // bitwise checks there must justify themselves with an allow).
        if cfg.is_enabled("F1")
            && cfg.is_f1_path(rel)
            && t.kind == TokKind::Punct
            && (t.text == "==" || t.text == "!=")
            && float_operand(toks, i)
            && !sup.allows("F1", line)
        {
            diags.push(Diagnostic::error(
                "F1",
                rel,
                line,
                format!(
                    "float `{}` comparison: use an epsilon bound or `total_cmp` (or justify exactness with an allow)",
                    t.text
                ),
            ));
        }
    }

    out.diagnostics = diags;
    out
}

/// Classify token `i` as a P1 site, if it is one.
fn p1_category(toks: &[Token], i: usize) -> Option<P1Cat> {
    let t = &toks[i];
    let prev = if i > 0 { toks.get(i - 1) } else { None };
    let next = toks.get(i + 1);
    match t.kind {
        TokKind::Ident => match t.text.as_str() {
            // `.unwrap()` / `.expect(` — require the receiver dot so a local
            // function *named* unwrap/expect is not miscounted.
            "unwrap" if prev.is_some_and(|p| p.is_punct(".")) && next.is_some_and(|n| n.is_punct("(")) => {
                Some(P1Cat::Unwrap)
            }
            "expect" if prev.is_some_and(|p| p.is_punct(".")) && next.is_some_and(|n| n.is_punct("(")) => {
                Some(P1Cat::Expect)
            }
            "panic" if next.is_some_and(|n| n.is_punct("!")) => Some(P1Cat::Panic),
            _ => None,
        },
        // Indexing: `[` whose previous token ends an indexable expression.
        // `self` counts (Index impls on Self); other keywords do not, which
        // keeps slice patterns (`let [a, b] = …`) and attributes out.
        TokKind::Punct if t.text == "[" => {
            let p = prev?;
            let indexable = match p.kind {
                TokKind::Ident => !is_keyword(&p.text) || p.text == "self" || p.text == "Self",
                TokKind::Punct => p.text == ")" || p.text == "]" || p.text == "?",
                _ => false,
            };
            indexable.then_some(P1Cat::Index)
        }
        _ => None,
    }
}

/// With `toks[open]` the `(` of a call: is any argument a bare string
/// literal? Literals nested deeper (inside the build closure's own calls)
/// are field keys and values, not names.
fn string_literal_arg(toks: &[Token], open: usize) -> bool {
    let mut depth = 0i32;
    for t in toks.iter().skip(open) {
        match t.kind {
            TokKind::Punct if matches!(t.text.as_str(), "(" | "[" | "{") => depth += 1,
            TokKind::Punct if matches!(t.text.as_str(), ")" | "]" | "}") => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            TokKind::Str if depth == 1 => return true,
            _ => {}
        }
    }
    false
}

/// Is either operand of the comparison at token `i` a float literal?
/// Handles a unary sign on the right-hand side (`x != -1.0`).
fn float_operand(toks: &[Token], i: usize) -> bool {
    let prev_float = i > 0 && toks[i - 1].kind == TokKind::Float;
    let next_float = match toks.get(i + 1) {
        Some(n) if n.kind == TokKind::Float => true,
        Some(n) if n.is_punct("-") || n.is_punct("+") => {
            toks.get(i + 2).is_some_and(|n2| n2.kind == TokKind::Float)
        }
        _ => false,
    };
    prev_float || next_float
}

/// A closed line range.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LineRange {
    /// First line (inclusive).
    pub start: u32,
    /// Last line (inclusive).
    pub end: u32,
}

impl LineRange {
    /// Is `line` inside this range (inclusive both ends)?
    pub(crate) fn contains(&self, line: u32) -> bool {
        (self.start..=self.end).contains(&line)
    }
}

/// Find the line ranges of items annotated `#[cfg(test)]` (or any cfg
/// attribute mentioning `test`, e.g. `cfg(all(test, unix))`). The range
/// runs from the attribute to the closing brace of the annotated item —
/// enough structure for scoping without parsing Rust.
pub(crate) fn test_regions(toks: &[Token]) -> Vec<LineRange> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let attr_line = toks[i].line;
            // Find the matching `]`, tracking bracket depth.
            let mut j = i + 2;
            let mut depth = 1i32;
            let mut has_cfg = false;
            let mut has_test = false;
            while j < toks.len() && depth > 0 {
                let t = &toks[j];
                if t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct("]") {
                    depth -= 1;
                } else if t.is_ident("cfg") {
                    has_cfg = true;
                } else if t.is_ident("test") {
                    has_test = true;
                }
                j += 1;
            }
            if has_cfg && has_test {
                // Skip any further attributes, then span the item body.
                let mut k = j;
                while k < toks.len()
                    && toks[k].is_punct("#")
                    && toks.get(k + 1).is_some_and(|t| t.is_punct("["))
                {
                    let mut d = 1i32;
                    k += 2;
                    while k < toks.len() && d > 0 {
                        if toks[k].is_punct("[") {
                            d += 1;
                        } else if toks[k].is_punct("]") {
                            d -= 1;
                        }
                        k += 1;
                    }
                }
                // Scan to the first `{` (item body) or a `;` at brace depth
                // zero (e.g. `#[cfg(test)] mod tests;`).
                let mut end_line = attr_line;
                while k < toks.len() {
                    if toks[k].is_punct(";") {
                        end_line = toks[k].line;
                        break;
                    }
                    if toks[k].is_punct("{") {
                        let mut d = 1i32;
                        k += 1;
                        while k < toks.len() && d > 0 {
                            if toks[k].is_punct("{") {
                                d += 1;
                            } else if toks[k].is_punct("}") {
                                d -= 1;
                            }
                            end_line = toks[k].line;
                            k += 1;
                        }
                        break;
                    }
                    end_line = toks[k].line;
                    k += 1;
                }
                out.push(LineRange { start: attr_line, end: end_line });
                i = j;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> FileAnalysis {
        analyze_rust_file(rel, src, &Config::default())
    }

    fn rules_at(fa: &FileAnalysis) -> Vec<(&'static str, u32)> {
        // Per-file diagnostics are unsorted (the workspace pass sorts);
        // order them here so expectations are stable.
        let mut v: Vec<_> = fa.diagnostics.iter().map(|d| (d.rule, d.line)).collect();
        v.sort_by_key(|(r, l)| (*l, *r));
        v
    }

    #[test]
    fn d2_scoping_and_allowlist() {
        let src = "use std::time::Instant;\nfn t() { let _ = Instant::now(); }\n#[cfg(test)]\nmod tests {\n  fn u() { let _ = std::time::Instant::now(); }\n}\n";
        let fa = run("crates/core/src/x.rs", src);
        assert_eq!(rules_at(&fa), vec![("D2", 1), ("D2", 2)]); // test mod exempt
        let fa = run("crates/bench/src/harness.rs", src);
        assert!(fa.diagnostics.is_empty());
    }

    #[test]
    fn d2_thread_current_and_hash_collections() {
        let fa = run(
            "crates/simdb/src/x.rs",
            "let id = std::thread::current().id();\nlet m: HashMap<u32, u32> = HashMap::new();\n",
        );
        let rules: Vec<_> = fa.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["D2", "D2", "D2"]); // thread + 2× HashMap
    }

    #[test]
    fn d2_hash_collections_ignore_the_clock_allowlist() {
        // obs/bench may read clocks, but hash order is banned there too.
        let src = "use std::collections::HashMap;\nuse std::time::Instant;\n";
        assert_eq!(rules_at(&run("crates/obs/src/x.rs", src)), vec![("D2", 1)]);
        assert_eq!(rules_at(&run("crates/bench/src/x.rs", src)), vec![("D2", 1)]);
        assert_eq!(rules_at(&run("crates/core/src/x.rs", src)), vec![("D2", 1), ("D2", 2)]);
    }

    #[test]
    fn o1_split_stdout_stderr_policy() {
        // println in a library file: flagged; in its test mod: fine.
        let src = "fn f() { println!(\"x\"); }\n#[cfg(test)]\nmod tests { fn g() { println!(\"y\"); } }\nfn h() { eprintln!(\"z\"); }\n";
        let fa = run("crates/core/src/x.rs", src);
        assert_eq!(rules_at(&fa), vec![("O1", 1), ("O1", 4)]);
        // CLI output layer may print but still not eprintln.
        let fa = run("src/cli.rs", src);
        assert_eq!(rules_at(&fa), vec![("O1", 4)]);
        // Only obs may write stderr.
        let fa = run("crates/obs/src/sink.rs", src);
        assert!(fa.diagnostics.is_empty());
    }

    #[test]
    fn p1_census_categories() {
        let src = "fn f(v: &[u32]) -> u32 {\n  let a = v.first().unwrap();\n  let b = v.last().expect(\"non-empty\");\n  if *a > 3 { panic!(\"boom\") }\n  v[0] + a + b\n}\n";
        let fa = run("crates/core/src/x.rs", src);
        let cats: Vec<_> = fa.p1_sites.iter().map(|s| (s.cat.name(), s.line)).collect();
        assert_eq!(cats, vec![("unwrap", 2), ("expect", 3), ("panic", 4), ("index", 5)]);
    }

    #[test]
    fn p1_skips_tests_bins_and_patterns() {
        let src = "fn f(v: &[u32]) { let [a, b] = [v[0], 1]; let _ = (a, b); }\n";
        // Slice pattern `let [a, b]` not counted; `v[0]` and the literal
        // array after `=` are one index site total.
        let fa = run("crates/core/src/x.rs", src);
        assert_eq!(fa.p1_sites.len(), 1);
        assert!(run("crates/core/src/bin/tool.rs", src).p1_sites.is_empty());
        assert!(run("crates/core/tests/e2e.rs", src).p1_sites.is_empty());
        assert!(run("src/bin/cli.rs", src).p1_sites.is_empty());
        assert!(!run("src/lib.rs", src).p1_sites.is_empty());
    }

    #[test]
    fn p1_counts_self_indexing_but_not_attributes_or_macros() {
        let src = "impl M {\n  fn at(&self) -> f64 { self[(1, 2)] }\n}\n#[derive(Debug)]\nstruct S;\nfn v() { let x = vec![1, 2]; let _ = x; }\n";
        let fa = run("crates/tsmath/src/matrix.rs", src);
        let cats: Vec<_> = fa.p1_sites.iter().map(|s| (s.cat.name(), s.line)).collect();
        assert_eq!(cats, vec![("index", 2)]);
    }

    #[test]
    fn f1_flags_float_eq_in_numeric_crates_only() {
        let src = "fn f(a: f64) -> bool { a == 0.0 || a != -1.5 || a == 1 }\n";
        let fa = run("crates/tsmath/src/stats.rs", src);
        assert_eq!(rules_at(&fa), vec![("F1", 1), ("F1", 1)]); // int compare not flagged
        assert!(run("crates/simdb/src/report.rs", src).diagnostics.is_empty());
    }

    #[test]
    fn f1_applies_to_tests_and_respects_allows() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t(a: f64) {\n    assert!(a == 0.0); // rpas-lint: allow(F1, reason = \"exact zero-init contract\")\n    assert!(a != 2.0);\n  }\n}\n";
        let fa = run("crates/nn/src/param.rs", src);
        assert_eq!(rules_at(&fa), vec![("F1", 5)]);
    }

    #[test]
    fn e1_literal_names_outside_the_exempt_prefixes() {
        let src = "fn f(obs: &Obs, s: &str) {\n  obs.info(\"plan\", \"x\", |e| e.field(\"k\", 1));\n  let _ = Event::new(Level::Info, s, \"b\");\n  obs.info(s, s, |e| e.field(\"k\", \"v\"));\n}\n";
        assert_eq!(rules_at(&run("crates/core/src/x.rs", src)), vec![("E1", 2), ("E1", 3)]);
        assert_eq!(rules_at(&run("tests/e2e.rs", src)), vec![("E1", 2), ("E1", 3)]);
        assert!(run("crates/obs/src/sink.rs", src).diagnostics.is_empty());
        assert!(run("ledger/src/probes.rs", src).diagnostics.is_empty());
    }

    #[test]
    fn suppression_with_reason_silences_and_malformed_reports() {
        let src = "fn f() { let _ = std::time::Instant::now(); } // rpas-lint: allow(D2, reason = \"coarse timing for logs\")\nfn g() { let _ = std::time::Instant::now(); } // rpas-lint: allow(D2)\n";
        let fa = run("crates/core/src/x.rs", src);
        assert_eq!(rules_at(&fa), vec![("D2", 2), ("LINT", 2)]);
    }

    #[test]
    fn test_region_detection_spans_mod_body() {
        let toks = lex("fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() {}\n}\nfn c() {}\n").tokens;
        let r = test_regions(&toks);
        assert_eq!(r.len(), 1);
        assert_eq!((r[0].start, r[0].end), (2, 5));
    }
}
