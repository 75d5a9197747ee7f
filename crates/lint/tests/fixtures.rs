//! Fixture-driven expected-diagnostic tests.
//!
//! Each file under `tests/fixtures/` carries a `lint-fixture: path = …`
//! header naming the virtual workspace path it is analysed under, plus
//! `//~ RULE` annotations on the lines where diagnostics are expected. A repeated rule (`//~ D2 D2`) expects that
//! many diagnostics on the line; `//~ P1(cat)` marks an expected
//! panic-census site rather than a diagnostic. The harness asserts the
//! analyser's output matches the annotations exactly — nothing missing,
//! nothing extra. The workspace walker skips `tests/fixtures`, so the
//! deliberate violations in these files never reach the real lint run.

use rpas_lint::config::Config;
use rpas_lint::rules;
use std::fs;
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// What a fixture file declares about itself.
struct Expected {
    virtual_path: String,
    /// `(line, rule)` pairs with multiplicity, sorted.
    diags: Vec<(u32, String)>,
    /// `(line, category name)` pairs for P1 census sites, sorted.
    p1: Vec<(u32, String)>,
}

fn parse_expected(src: &str) -> Expected {
    let marker = "//~";
    let mut virtual_path = None;
    let mut diags = Vec::new();
    let mut p1 = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let line_no = idx as u32 + 1;
        if let Some(pos) = line.find("lint-fixture:") {
            let rest = line[pos + "lint-fixture:".len()..].trim();
            if let Some(p) = rest.strip_prefix("path") {
                virtual_path =
                    Some(p.trim_start().trim_start_matches('=').trim().to_string());
            }
        }
        if let Some(pos) = line.find(marker) {
            for spec in line[pos + marker.len()..].split_whitespace() {
                match spec.strip_prefix("P1(").and_then(|s| s.strip_suffix(')')) {
                    Some(cat) => p1.push((line_no, cat.to_string())),
                    None => diags.push((line_no, spec.to_string())),
                }
            }
        }
    }
    diags.sort();
    p1.sort();
    Expected {
        virtual_path: virtual_path.expect("fixture missing `lint-fixture: path = …` header"),
        diags,
        p1,
    }
}

/// Run the analyser on one fixture and diff the outcome against its
/// annotations. Returns a description of every mismatch.
fn check_fixture(path: &Path) -> Vec<String> {
    let src = fs::read_to_string(path).expect("fixture must be readable");
    let exp = parse_expected(&src);

    let fa = rules::analyze_rust_file(&exp.virtual_path, &src, &Config::default());
    let mut got_diags: Vec<(u32, String)> =
        fa.diagnostics.into_iter().map(|d| (d.line, d.rule.to_string())).collect();
    let mut got_p1: Vec<(u32, String)> =
        fa.p1_sites.into_iter().map(|s| (s.line, s.cat.name().to_string())).collect();
    got_diags.sort();
    got_p1.sort();

    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
    let mut problems = Vec::new();
    if got_diags != exp.diags {
        problems.push(format!(
            "{name}: diagnostics mismatch\n  expected: {:?}\n  got:      {:?}",
            exp.diags, got_diags
        ));
    }
    if got_p1 != exp.p1 {
        problems.push(format!(
            "{name}: P1 sites mismatch\n  expected: {:?}\n  got:      {:?}",
            exp.p1, got_p1
        ));
    }
    problems
}

#[test]
fn every_fixture_matches_its_annotations() {
    let dir = fixture_dir();
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("tests/fixtures directory exists")
        .map(|e| e.expect("fixture dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 7, "fixture corpus went missing from {}", dir.display());

    let problems: Vec<String> = entries.iter().flat_map(|p| check_fixture(p)).collect();
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}

#[test]
fn fixtures_cover_every_rule() {
    // The corpus must exercise each rule the binary enforces, so a rule
    // regression cannot hide behind missing coverage.
    let dir = fixture_dir();
    let mut seen: Vec<String> = Vec::new();
    for e in fs::read_dir(&dir).expect("fixtures dir") {
        let p = e.expect("entry").path();
        let Ok(src) = fs::read_to_string(&p) else { continue };
        let exp = parse_expected(&src);
        seen.extend(exp.diags.into_iter().map(|(_, r)| r));
        if !exp.p1.is_empty() {
            seen.push("P1".to_string());
        }
    }
    for rule in rpas_lint::config::RULE_IDS {
        assert!(seen.iter().any(|r| r == rule), "no fixture covers rule {rule}");
    }
}
