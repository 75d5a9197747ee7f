//! Rule configuration: which rules run and where they apply.
//!
//! The defaults below *are* the workspace policy (DESIGN.md §9). They are
//! plain data so tests can build narrower configs and so future knobs can
//! be surfaced through the CLI without touching rule code.

use std::collections::BTreeSet;

/// Every rule identifier, in the order they are documented.
pub const RULE_IDS: &[&str] = &["D2", "O1", "P1", "F1", "E1", "LINT"];

/// One-line description per rule, for `--rules` and diagnostics.
pub fn rule_summary(rule: &str) -> &'static str {
    match rule {
        "D2" => "nondeterminism source: SystemTime/Instant/thread id outside obs/bench, HashMap/HashSet anywhere",
        "O1" => "stdout/stderr write outside crates/obs and the CLI output layer",
        "P1" => "panic-site budget (unwrap/expect/panic!/slice-index) exceeded vs lint-baseline.json",
        "F1" => "float == / != comparison in a numeric crate",
        "E1" => "string-literal span/name in .info(…) / Event::new(…) outside crates/obs and ledger (name events through rpas_obs::catalog)",
        "LINT" => "malformed rpas-lint suppression directive",
        _ => "unknown rule",
    }
}

/// The configurable rule set.
#[derive(Debug, Clone)]
pub struct Config {
    /// Rules that actually run (suppression parsing always runs).
    pub enabled: BTreeSet<String>,
    /// D2: path prefixes where clock and thread-identity reads are allowed
    /// (timing harnesses and the obs layer itself). `HashMap`/`HashSet`
    /// are banned there too.
    pub d2_allow_prefixes: Vec<String>,
    /// O1: path prefixes where `println!`/`print!` is the product (CLI and
    /// table output layers, examples).
    pub o1_stdout_allow_prefixes: Vec<String>,
    /// O1: path prefixes where direct stderr writes are allowed — only the
    /// obs stderr sink should ever be here.
    pub o1_stderr_allow_prefixes: Vec<String>,
    /// F1: `crates/<dir>/` directory names whose code (tests included) may
    /// not compare floats with `==`/`!=`.
    pub f1_crate_dirs: Vec<String>,
    /// E1: path prefixes where the string-taking `Obs::info` /
    /// `Event::new` may be called with literals — the obs crate that
    /// defines them and the frozen benchmark that still uses them.
    pub e1_exempt_prefixes: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            enabled: RULE_IDS.iter().map(|r| r.to_string()).collect(),
            d2_allow_prefixes: vec!["crates/obs/".into(), "crates/bench/".into()],
            o1_stdout_allow_prefixes: vec![
                "crates/obs/".into(),
                "crates/bench/".into(),
                "src/bin/".into(),
                "src/cli.rs".into(),
                "examples/".into(),
            ],
            o1_stderr_allow_prefixes: vec!["crates/obs/".into()],
            f1_crate_dirs: ["tsmath", "nn", "forecast", "lp", "core", "telemetry"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            e1_exempt_prefixes: vec!["crates/obs/".into(), "ledger/".into()],
        }
    }
}

impl Config {
    /// Is `rule` enabled?
    pub fn is_enabled(&self, rule: &str) -> bool {
        self.enabled.contains(rule)
    }

    /// Does `rel` (workspace-relative, `/`-separated) start with any of the
    /// given prefixes?
    pub(crate) fn path_in(rel: &str, prefixes: &[String]) -> bool {
        prefixes.iter().any(|p| rel.starts_with(p.as_str()))
    }

    /// Is `rel` inside an F1 numeric crate (its `src/` *and* `tests/`)?
    pub(crate) fn is_f1_path(&self, rel: &str) -> bool {
        self.f1_crate_dirs.iter().any(|d| rel.starts_with(&format!("crates/{d}/")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_all_rules() {
        let c = Config::default();
        for r in RULE_IDS {
            assert!(c.is_enabled(r), "{r} should be enabled by default");
            assert_ne!(rule_summary(r), "unknown rule");
        }
    }

    #[test]
    fn f1_paths_include_crate_tests() {
        let c = Config::default();
        assert!(c.is_f1_path("crates/tsmath/src/stats.rs"));
        assert!(c.is_f1_path("crates/core/tests/decision_audit.rs"));
        assert!(!c.is_f1_path("crates/simdb/src/report.rs"));
        assert!(!c.is_f1_path("tests/determinism.rs"));
    }
}
