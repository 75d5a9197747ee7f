//! The lint must pass on the workspace that ships it: zero errors, and
//! both committed surfaces — the P1 census in `lint-baseline.json`, the
//! obs event set in `events-registry.json` — byte-for-byte what a fresh
//! sweep regenerates. `scripts/verify.sh` runs this through
//! `cargo test --workspace` rather than re-deriving either file itself,
//! so a stale surface fails the ordinary test suite, not just the gate.

use rpas_lint::baseline;
use rpas_lint::config::Config;
use rpas_lint::registry;
use rpas_lint::report::Severity;
use std::collections::BTreeSet;
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

#[test]
fn committed_events_registry_is_fresh() {
    // The registry must be byte-for-byte what `--write-events` would
    // regenerate: the sweep's static emit inventory plus the hand-curated
    // dynamic entries. Anything else means an emit site was added,
    // renamed, or removed without updating the registry.
    let root = workspace_root();
    let res = rpas_lint::run_workspace(&root, &Config::default()).expect("lint run");
    let committed = fs::read_to_string(root.join("events-registry.json"))
        .expect("events-registry.json is committed at the workspace root");
    let reg = registry::parse(&committed).expect("committed registry parses");
    let dynamic: BTreeSet<String> =
        reg.events.iter().filter(|e| e.dynamic).map(|e| e.name.clone()).collect();
    let static_names: BTreeSet<String> =
        res.emit_sites.iter().filter_map(|s| s.full_name()).collect();
    assert_eq!(
        committed,
        registry::to_json(&static_names, &dynamic),
        "events-registry.json drifted from the workspace's emit sites — if the \
         change is deliberate, regenerate it with `cargo run --bin lint -- --write-events` \
         and review the diff"
    );
}
