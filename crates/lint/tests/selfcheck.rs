//! The lint must pass on the workspace that ships it: zero errors, and
//! the committed P1 census in `lint-baseline.json` byte-for-byte what a
//! fresh sweep regenerates. `scripts/verify.sh` runs this through
//! `cargo test --workspace` rather than re-deriving the file itself, so
//! a stale baseline fails the ordinary test suite, not just the gate.

use rpas_lint::baseline;
use rpas_lint::config::Config;
use rpas_lint::report::Severity;
use std::fs;
use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    rpas_lint::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("crates/lint lives inside the workspace")
}

#[test]
fn workspace_lints_clean() {
    let root = workspace_root();
    let res = rpas_lint::run_workspace(&root, &Config::default()).expect("lint run");
    assert!(res.files_scanned > 100, "walker found too few files — scope bug?");
    let errors: Vec<String> = res
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.to_string())
        .collect();
    assert!(errors.is_empty(), "workspace has lint errors:\n{}", errors.join("\n"));
}

#[test]
fn committed_baseline_matches_census() {
    let root = workspace_root();
    let res = rpas_lint::run_workspace(&root, &Config::default()).expect("lint run");
    let raw = fs::read_to_string(root.join("lint-baseline.json"))
        .expect("lint-baseline.json is committed at the workspace root");
    let committed = baseline::parse(&raw).expect("committed baseline parses");
    assert_eq!(
        res.p1, committed,
        "P1 census drifted from lint-baseline.json — if the change is \
         deliberate, regenerate it with `cargo run --bin lint -- --write-baseline` \
         and review the diff"
    );
    assert_eq!(raw, baseline::to_json(&res.p1), "lint-baseline.json is not in --write-baseline form");
}
