//! The zero-dependency claim, checked where cargo records the truth: a
//! `Cargo.lock` lists every package of the *resolved, transitive* graph,
//! and gives each one that does not come from a path a `source = "…"`
//! line (`registry+…`, `git+…`). Cargo rewrites the lockfile during the
//! build that compiles this test, so a dependency added to any manifest
//! is in it before the assertion below runs.

use std::path::Path;

/// `name (source)` of every package in lockfile text that resolves from
/// anywhere but a path.
fn non_path_packages(lock: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut name = "?";
    for line in lock.lines() {
        if let Some(n) = line.strip_prefix("name = ") {
            name = n.trim_matches('"');
        } else if let Some(source) = line.strip_prefix("source = ") {
            found.push(format!("{name} ({})", source.trim_matches('"')));
        }
    }
    found
}

#[test]
fn lockfiles_name_no_registry_or_git_source() {
    // The checker itself must see through a real lockfile entry.
    let tainted = "version = 4\n\n[[package]]\nname = \"rpas-core\"\nversion = \"0.1.0\"\n\n\
        [[package]]\nname = \"rand\"\nversion = \"0.8.5\"\n\
        source = \"registry+https://github.com/rust-lang/crates.io-index\"\n\
        checksum = \"34af8d1a0e25924bc5b7c43c079c942339d8f0a8b57c39049bef581b46327404\"\n";
    assert_eq!(
        non_path_packages(tainted),
        ["rand (registry+https://github.com/rust-lang/crates.io-index)"]
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for rel in ["Cargo.lock", "ledger/Cargo.lock"] {
        let lock = std::fs::read_to_string(root.join(rel))
            .unwrap_or_else(|e| panic!("{rel} is committed at the workspace root: {e}"));
        assert!(lock.contains("[[package]]"), "{rel} lists no packages — not a lockfile?");
        let external = non_path_packages(&lock);
        assert!(
            external.is_empty(),
            "{rel} resolves packages from outside the workspace: {external:?} — \
             the build is hermetic (path dependencies only; DESIGN.md §6)"
        );
    }
}
