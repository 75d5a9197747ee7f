//! The P1 panic-site budget: a checked-in census (`lint-baseline.json`)
//! freezing the existing debt per library crate. Growth in any category is
//! a hard error; shrinkage is a warning asking for the baseline to be
//! ratcheted down (`lint --write-baseline`). The committed file and the
//! measured counts must agree exactly (`tests/selfcheck.rs`, and
//! `lint --deny-warnings` in `verify.sh`).

use crate::json::Scanner;
use crate::report::Diagnostic;
use std::collections::BTreeMap;

/// Per-crate P1 census.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct P1Counts {
    /// `.unwrap()` calls.
    pub unwrap: u32,
    /// `.expect(...)` calls.
    pub expect: u32,
    /// `panic!` invocations.
    pub panic: u32,
    /// Slice/array indexing expressions.
    pub index: u32,
}

impl P1Counts {
    /// Category accessors in stable order: (name, count).
    pub(crate) fn categories(&self) -> [(&'static str, u32); 4] {
        [("unwrap", self.unwrap), ("expect", self.expect), ("panic", self.panic), ("index", self.index)]
    }

    /// Total panic sites.
    pub fn total(&self) -> u32 {
        self.unwrap + self.expect + self.panic + self.index
    }
}

/// Crate package name → census. `BTreeMap` so serialisation is stable.
pub type Baseline = BTreeMap<String, P1Counts>;

/// Serialise a baseline to the committed JSON format (stable key order,
/// one crate per line, trailing newline).
pub fn to_json(b: &Baseline) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"p1\": {");
    for (i, (krate, c)) in b.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    \"{}\": {{ \"unwrap\": {}, \"expect\": {}, \"panic\": {}, \"index\": {} }}",
            krate, c.unwrap, c.expect, c.panic, c.index
        ));
    }
    if !b.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("}\n}\n");
    out
}

/// Parse the baseline format written by [`to_json`]. Accepts arbitrary
/// whitespace but only this shape: two levels of objects with integer
/// leaves under `"p1"`, plus an integer `"version"`.
pub fn parse(src: &str) -> Result<Baseline, String> {
    let mut p = Scanner::new(src);
    p.expect_byte(b'{')?;
    let mut baseline = Baseline::new();
    let mut version_seen = false;
    loop {
        let key = p.string()?;
        p.expect_byte(b':')?;
        match key.as_str() {
            "version" => {
                let v = p.integer()?;
                if v != 1 {
                    return Err(format!("unsupported baseline version {v}"));
                }
                version_seen = true;
            }
            "p1" => {
                p.expect_byte(b'{')?;
                if p.try_byte(b'}') {
                    // empty p1 object
                } else {
                    loop {
                        let krate = p.string()?;
                        p.expect_byte(b':')?;
                        p.expect_byte(b'{')?;
                        let mut c = P1Counts::default();
                        loop {
                            let cat = p.string()?;
                            p.expect_byte(b':')?;
                            let n = p.integer()? as u32;
                            match cat.as_str() {
                                "unwrap" => c.unwrap = n,
                                "expect" => c.expect = n,
                                "panic" => c.panic = n,
                                "index" => c.index = n,
                                other => return Err(format!("unknown category {other:?}")),
                            }
                            if !p.try_byte(b',') {
                                break;
                            }
                        }
                        p.expect_byte(b'}')?;
                        baseline.insert(krate, c);
                        if !p.try_byte(b',') {
                            break;
                        }
                    }
                    p.expect_byte(b'}')?;
                }
            }
            other => return Err(format!("unknown baseline key {other:?}")),
        }
        if !p.try_byte(b',') {
            break;
        }
    }
    p.expect_byte(b'}')?;
    p.end()?;
    if !version_seen {
        return Err("missing \"version\" key".to_string());
    }
    Ok(baseline)
}

/// Compare measured counts against the committed budget. Growth in any
/// category of any crate is an error; shrinkage (or a crate that vanished)
/// is a stale-baseline warning. `sites` maps crate → human `file:line`
/// anchors of every measured site, used to make growth actionable.
pub fn compare(
    current: &Baseline,
    budget: &Baseline,
    sites: &BTreeMap<String, Vec<String>>,
    baseline_file: &str,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (krate, cur) in current {
        let bud = budget.get(krate).copied().unwrap_or_default();
        for ((cat, c), (_, b)) in cur.categories().into_iter().zip(bud.categories()) {
            if c > b {
                let anchors = sites
                    .get(krate)
                    .map(|v| {
                        let shown: Vec<&str> = v.iter().map(String::as_str).take(12).collect();
                        let more = v.len().saturating_sub(shown.len());
                        let tail = if more > 0 { format!(" … +{more} more") } else { String::new() };
                        format!(" sites: {}{}", shown.join(", "), tail)
                    })
                    .unwrap_or_default();
                diags.push(Diagnostic::error(
                    "P1",
                    baseline_file,
                    0,
                    format!(
                        "panic-site budget exceeded in `{krate}`: {c} `{cat}` sites vs budget {b} — remove the new site, justify it with `// rpas-lint: allow(P1, reason = ...)`, or re-freeze with --write-baseline after review;{anchors}"
                    ),
                ));
            } else if c < b {
                diags.push(Diagnostic::warning(
                    "P1",
                    baseline_file,
                    0,
                    format!(
                        "stale baseline for `{krate}`: {c} `{cat}` sites vs budget {b} — ratchet down with --write-baseline"
                    ),
                ));
            }
        }
    }
    for krate in budget.keys() {
        if !current.contains_key(krate) && budget[krate].total() > 0 {
            diags.push(Diagnostic::warning(
                "P1",
                baseline_file,
                0,
                format!("baseline lists crate `{krate}` which no longer has library sources — ratchet with --write-baseline"),
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Severity;

    fn counts(u: u32, e: u32, p: u32, i: u32) -> P1Counts {
        P1Counts { unwrap: u, expect: e, panic: p, index: i }
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let mut b = Baseline::new();
        b.insert("rpas-core".into(), counts(1, 2, 3, 4));
        b.insert("rpas-lp".into(), counts(0, 0, 0, 40));
        let j = to_json(&b);
        assert_eq!(parse(&j).expect("roundtrip parse"), b);
        assert_eq!(to_json(&parse(&j).expect("parse")), j);
    }

    #[test]
    fn empty_baseline_roundtrips() {
        let b = Baseline::new();
        assert_eq!(parse(&to_json(&b)).expect("parse"), b);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{\"version\": 2, \"p1\": {}}").is_err());
        assert!(parse("{\"p1\": {}}").is_err()); // missing version
        assert!(parse("{\"version\": 1, \"p1\": {\"x\": {\"bogus\": 1}}}").is_err());
        assert!(parse("{\"version\": 1, \"p1\": {}} trailing").is_err());
    }

    #[test]
    fn growth_errors_shrink_warns() {
        let mut cur = Baseline::new();
        cur.insert("a".into(), counts(2, 0, 0, 5));
        let mut bud = Baseline::new();
        bud.insert("a".into(), counts(1, 0, 0, 6));
        let sites = BTreeMap::new();
        let d = compare(&cur, &bud, &sites, "lint-baseline.json");
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].severity, Severity::Error);
        assert!(d[0].message.contains("2 `unwrap` sites vs budget 1"));
        assert_eq!(d[1].severity, Severity::Warning);
        assert!(d[1].message.contains("ratchet down"));
    }

    #[test]
    fn unknown_crate_in_budget_is_flagged() {
        let cur = Baseline::new();
        let mut bud = Baseline::new();
        bud.insert("ghost".into(), counts(1, 0, 0, 0));
        let d = compare(&cur, &bud, &BTreeMap::new(), "lint-baseline.json");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].severity, Severity::Warning);
    }

    #[test]
    fn new_crate_with_sites_is_growth_against_zero_budget() {
        let mut cur = Baseline::new();
        cur.insert("new".into(), counts(0, 1, 0, 0));
        let mut sites = BTreeMap::new();
        sites.insert("new".into(), vec!["crates/new/src/lib.rs:7".to_string()]);
        let d = compare(&cur, &Baseline::new(), &sites, "lint-baseline.json");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].severity, Severity::Error);
        assert!(d[0].message.contains("crates/new/src/lib.rs:7"));
    }
}
