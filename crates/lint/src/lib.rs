//! # rpas-lint — in-repo static analysis for the rpas workspace
//!
//! Enforces the invariants no compiler checks and no grep can see
//! reliably (DESIGN.md §9):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `D2` | no nondeterminism sources: `SystemTime`, `Instant`, `thread::current()` outside the obs/bench allowlist, `HashMap`/`HashSet` anywhere |
//! | `O1` | stdout/stderr discipline — diagnostics route through `rpas_obs::Obs`, not `eprintln!`/`println!` |
//! | `P1` | frozen panic-site budget per library crate (`unwrap`/`expect`/`panic!`/slice indexing) vs `lint-baseline.json` |
//! | `F1` | no float `==`/`!=` in the numeric crates |
//! | `E1` | no string-literal span/name handed to `.info(…)` / `Event::new(…)` outside `crates/obs/` and `ledger/` — events are named through `rpas_obs::catalog` (DESIGN.md §7) |
//!
//! All five are token-level and per file ([`rules`]).
//!
//! Built on a hand-written lexer ([`lexer`]) so string literals and
//! comments can never false-positive, with mandatory-reason inline
//! suppressions (`suppress`). The `lint` binary (root `src/bin/lint.rs`)
//! wires this into `scripts/verify.sh`; `tests/selfcheck.rs` keeps the
//! workspace itself lint-clean under plain `cargo test` and re-derives
//! the committed `lint-baseline.json` byte-for-byte.

#![warn(missing_docs)]

pub mod baseline;
pub mod config;
mod json;
pub mod lexer;
mod manifest;
pub mod report;
pub mod rules;
mod suppress;
mod walk;

use baseline::{Baseline, P1Counts};
use config::Config;
use report::Diagnostic;
use rules::P1Cat;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

/// Everything one workspace run produces.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Rule violations and warnings, in stable report order.
    pub diagnostics: Vec<Diagnostic>,
    /// Measured P1 census per library crate.
    pub p1: Baseline,
    /// `file:line` anchors of every P1 site, per crate (for actionable
    /// budget-exceeded messages).
    pub p1_sites: BTreeMap<String, Vec<String>>,
    /// Number of files analysed.
    pub files_scanned: usize,
}

/// Lint the whole workspace under `root`. Does not consult the baseline —
/// callers combine [`RunResult::p1`] with [`baseline::compare`] so the
/// binary can also regenerate the baseline from the same run.
pub fn run_workspace(root: &Path, cfg: &Config) -> io::Result<RunResult> {
    let entries = walk::walk(root)?;
    let mut res = RunResult::default();

    // First pass: manifests, to map crate dirs to package names for P1
    // attribution.
    let mut crate_names: BTreeMap<String, String> = BTreeMap::new();
    let mut root_package = String::from("rpas");
    for e in entries.iter().filter(|e| e.kind == walk::FileKind::Manifest) {
        let src = fs::read_to_string(&e.abs)?;
        if let Some(name) = manifest::package_name(&src) {
            if e.rel == "Cargo.toml" {
                root_package = name;
            } else if let Some(dir) = e.rel.strip_prefix("crates/").and_then(|r| r.split('/').next())
            {
                crate_names.insert(dir.to_string(), name);
            }
        }
        res.files_scanned += 1;
    }

    // Second pass: every rule over each Rust file.
    for e in entries.iter().filter(|e| e.kind == walk::FileKind::Rust) {
        let src = fs::read_to_string(&e.abs)?;
        let fa = rules::analyze_rust_file(&e.rel, &src, cfg);
        res.diagnostics.extend(fa.diagnostics);
        if !fa.p1_sites.is_empty() {
            let krate = p1_crate(&e.rel, &crate_names, &root_package);
            let counts = res.p1.entry(krate.clone()).or_default();
            let anchors = res.p1_sites.entry(krate).or_default();
            for site in &fa.p1_sites {
                bump(counts, site.cat);
                anchors.push(format!("{}:{}", e.rel, site.line));
            }
        }
        res.files_scanned += 1;
    }

    // Crates whose library code exists but has zero sites still belong in
    // the census, so a budget line persists for them.
    for e in entries.iter().filter(|e| e.kind == walk::FileKind::Rust) {
        if rules::is_library_path(&e.rel) {
            res.p1.entry(p1_crate(&e.rel, &crate_names, &root_package)).or_default();
        }
    }

    report::sort(&mut res.diagnostics);
    Ok(res)
}

fn bump(c: &mut P1Counts, cat: P1Cat) {
    match cat {
        P1Cat::Unwrap => c.unwrap += 1,
        P1Cat::Expect => c.expect += 1,
        P1Cat::Panic => c.panic += 1,
        P1Cat::Index => c.index += 1,
    }
}

/// Which crate a library file's P1 sites are charged to.
fn p1_crate(rel: &str, crate_names: &BTreeMap<String, String>, root_package: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .map(|dir| crate_names.get(dir).cloned().unwrap_or_else(|| dir.to_string()))
        .unwrap_or_else(|| root_package.to_string())
}

/// Locate the workspace root: walk up from `start` until a `Cargo.toml`
/// containing a `[workspace]` table is found.
pub fn find_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(src) = fs::read_to_string(&manifest) {
            if src.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_root_from_crate_dir() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("workspace root");
        assert!(root.join("crates/lint/Cargo.toml").exists());
    }

    #[test]
    fn p1_attribution_uses_package_names() {
        let mut names = BTreeMap::new();
        names.insert("lp".to_string(), "rpas-lp".to_string());
        assert_eq!(p1_crate("crates/lp/src/simplex.rs", &names, "rpas"), "rpas-lp");
        assert_eq!(p1_crate("src/lib.rs", &names, "rpas"), "rpas");
        assert_eq!(p1_crate("crates/unknown/src/lib.rs", &names, "rpas"), "unknown");
    }
}
