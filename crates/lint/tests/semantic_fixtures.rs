//! Whole-workspace E1 fixture test: `run_workspace` over the
//! mini-workspace in `tests/fixtures/semantic/` (the other rules
//! disabled, so only E1 speaks) diffed against the `//~ E1` annotations
//! in the fixture source plus the deliberate `sem/orphan` registry entry.
//! The real walker skips `tests/fixtures`, so these violations never
//! reach a production sweep.

use rpas_lint::config::Config;
use rpas_lint::report::Severity;
use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/semantic")
}

fn semantic_cfg() -> Config {
    let mut cfg = Config::default();
    for r in ["D2", "O1", "P1", "F1"] {
        cfg.enabled.remove(r);
    }
    cfg
}

/// `(file, line, rule)` triples the corpus promises, from its `//~`
/// annotations. The registry orphan is annotated here because JSON
/// carries no comments.
fn expected() -> Vec<(String, u32, String)> {
    let root = fixture_root();
    let mut exp = Vec::new();
    let rel = "src/emit.rs";
    let src = fs::read_to_string(root.join(rel)).expect("fixture source is readable");
    for (idx, line) in src.lines().enumerate() {
        if let Some(pos) = line.find("//~") {
            for rule in line[pos + 3..].split_whitespace() {
                exp.push((rel.to_string(), idx as u32 + 1, rule.to_string()));
            }
        }
    }
    let reg = fs::read_to_string(root.join("events-registry.json")).expect("fixture registry");
    let orphan_line =
        reg.lines().position(|l| l.contains("sem/orphan")).expect("orphan entry present") as u32
            + 1;
    exp.push(("events-registry.json".to_string(), orphan_line, "E1".to_string()));
    exp.sort();
    exp
}

#[test]
fn semantic_fixtures_match_annotations() {
    let res =
        rpas_lint::run_workspace(&fixture_root(), &semantic_cfg()).expect("fixture workspace runs");
    let mut got: Vec<(String, u32, String)> =
        res.diagnostics.iter().map(|d| (d.file.clone(), d.line, d.rule.to_string())).collect();
    got.sort();
    assert_eq!(got, expected(), "semantic findings drifted from the fixture annotations");
    assert!(
        res.diagnostics.iter().all(|d| d.severity == Severity::Error),
        "E1 findings are all error severity"
    );
}

#[test]
fn fixture_emit_inventory_is_extracted() {
    // Every full-literal emit shape in emit.rs lands in the inventory
    // that `--write-events` freezes — including the allow(E1) site,
    // which is suppressed from the report but still a real emitter.
    let res =
        rpas_lint::run_workspace(&fixture_root(), &semantic_cfg()).expect("fixture workspace runs");
    let names: BTreeSet<String> =
        res.emit_sites.iter().filter_map(|s| s.full_name()).collect();
    for name in
        ["plan/decision", "plan/mystery", "plan/counter", "plan/gauge", "plan/span_close", "plan/suppressed"]
    {
        assert!(names.contains(name), "emit inventory is missing `{name}`: {names:?}");
    }
}
