//! E1, the one cross-file rule: the workspace's obs emit inventory
//! ([`crate::index`]) against the committed `events-registry.json`
//! ([`crate::registry`]) — every statically-visible event name is
//! registered, and every non-dynamic registry entry still has an emit
//! site. Sites carrying `// rpas-lint: allow(E1, reason = "…")` are
//! skipped on the site side but still count as emitters.

use crate::config::Config;
use crate::index::EmitSite;
use crate::registry::EventsRegistry;
use crate::report::Diagnostic;
use std::collections::BTreeSet;

/// How the registry file loaded, as seen by [`e1`].
#[derive(Debug)]
pub enum RegistryState {
    /// Parsed successfully.
    Loaded(EventsRegistry),
    /// File exists but does not parse.
    Malformed(String),
    /// No registry file at the expected path.
    Missing,
}

/// Check the whole emit inventory against the registry, both ways: each
/// unsuppressed site must be registered, and each non-dynamic entry must
/// still have an emit site. Findings are unsorted — the workspace pass
/// sorts.
pub fn e1(sites: &[EmitSite], registry: &RegistryState, cfg: &Config) -> Vec<Diagnostic> {
    let reg_file = cfg.events_registry_file.as_str();
    let reg = match registry {
        RegistryState::Loaded(r) => r,
        RegistryState::Malformed(e) => {
            return vec![Diagnostic::error(
                "E1",
                reg_file,
                0,
                format!("unreadable events registry: {e} — regenerate with lint --write-events"),
            )];
        }
        RegistryState::Missing => {
            return vec![Diagnostic::warning(
                "E1",
                reg_file,
                0,
                "no events registry found — freeze the current event surface with lint --write-events",
            )];
        }
    };
    let mut diags: Vec<Diagnostic> =
        sites.iter().filter(|s| !s.allowed).filter_map(|s| check_site(s, reg, cfg)).collect();
    let emitted: BTreeSet<String> = sites.iter().filter_map(EmitSite::full_name).collect();
    for entry in &reg.events {
        if !entry.dynamic && !emitted.contains(&entry.name) {
            diags.push(Diagnostic::error(
                "E1",
                reg_file,
                entry.line,
                format!(
                    "registry entry `{}` has no emit site left — remove it (lint --write-events) or mark it dynamic",
                    entry.name
                ),
            ));
        }
    }
    diags
}

/// Check one emit site against the registry. Fully-dynamic sites are
/// uncheckable statically and covered by the runtime containment test.
fn check_site(site: &EmitSite, reg: &EventsRegistry, cfg: &Config) -> Option<Diagnostic> {
    match (&site.span, &site.event) {
        (Some(s), Some(e)) => {
            let name = format!("{s}/{e}");
            (!reg.contains(&name)).then(|| {
                Diagnostic::error(
                    "E1",
                    &site.rel,
                    site.line,
                    format!(
                        "unregistered obs event `{name}`: add it to {} (lint --write-events) or fix the emit site",
                        cfg.events_registry_file
                    ),
                )
            })
        }
        (Some(span), None) => (!reg.has_span(span)).then(|| {
            Diagnostic::error(
                "E1",
                &site.rel,
                site.line,
                format!(
                    "obs emit with dynamic event name under span `{span}`, but {} has no `{span}/…` entry",
                    cfg.events_registry_file
                ),
            )
        }),
        (None, Some(event)) => (!reg.has_dynamic_event(event)).then(|| {
            Diagnostic::error(
                "E1",
                &site.rel,
                site.line,
                format!(
                    "obs emit with dynamic span for event `{event}`, but {} has no dynamic `…/{event}` entry",
                    cfg.events_registry_file
                ),
            )
        }),
        (None, None) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use crate::rules::analyze_rust_file;

    fn run_src(rel: &str, src: &str, reg_json: Option<&str>) -> Vec<(u32, String)> {
        let cfg = Config::default();
        let state = match reg_json {
            Some(j) => RegistryState::Loaded(registry::parse(j).expect("test registry")),
            None => RegistryState::Missing,
        };
        let sites = analyze_rust_file(rel, src, &cfg).emit_sites;
        e1(&sites, &state, &cfg).into_iter().map(|d| (d.line, d.message)).collect()
    }

    const REG: &str = "{\"version\": 1, \"events\": [{ \"name\": \"plan/decision\" }, { \"name\": \"telemetry/histogram\", \"dynamic\": true }]}";

    #[test]
    fn e1_flags_unknown_and_orphaned_events() {
        let src = "fn f(obs: &Obs) {\n  obs.info(\"plan\", \"decision\", |f| f.raw(\"\"));\n  obs.info(\"plan\", \"mystery\", |f| f.raw(\"\"));\n}\n";
        let got = run_src("crates/core/src/x.rs", src, Some(REG));
        // `plan/mystery` unregistered; `telemetry/histogram` is dynamic so
        // not orphaned even with no site.
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].0, 3);
        assert!(got[0].1.contains("plan/mystery"));

        // Remove the only `plan/decision` site: the entry orphans.
        let got = run_src("crates/core/src/x.rs", "fn f() {}\n", Some(REG));
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].1.contains("no emit site left"), "{got:?}");
    }

    #[test]
    fn e1_partial_literal_sites_match_by_prefix_or_dynamic_entry() {
        let src = "fn f(obs: &Obs, s: &str, n: &str) {\n  obs.emit(Level::Info, \"plan\", n, |f| f.raw(\"\"));\n  obs.emit(Level::Info, s, \"histogram\", |f| f.raw(\"\"));\n  obs.emit(Level::Info, s, \"decision\", |f| f.raw(\"\"));\n}\n";
        let got = run_src("crates/core/src/x.rs", src, Some(REG));
        // Line 2: dynamic name under registered span `plan` — ok.
        // Line 3: dynamic span, `histogram` has a dynamic entry — ok.
        // Line 4: dynamic span, `decision` has no dynamic entry — flagged.
        // Plus: `plan/decision` entry orphans (no full-literal site).
        let e1_line4 = got.iter().filter(|(l, _)| *l == 4).count();
        assert_eq!(e1_line4, 1, "{got:?}");
        assert_eq!(got.len(), 2, "{got:?}");
    }

    #[test]
    fn e1_allowed_site_is_unchecked_but_still_an_emitter() {
        let src = "fn f(obs: &Obs) {\n  // rpas-lint: allow(E1, reason = \"test\")\n  obs.info(\"plan\", \"mystery\", |f| f.raw(\"\"));\n  // rpas-lint: allow(E1, reason = \"test\")\n  obs.info(\"plan\", \"decision\", |f| f.raw(\"\"));\n}\n";
        let got = run_src("crates/core/src/x.rs", src, Some(REG));
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn e1_missing_registry_is_a_warning_only() {
        let got = run_src("crates/core/src/x.rs", "fn f() {}\n", None);
        assert_eq!(got.len(), 1);
        assert!(got[0].1.contains("no events registry"));
    }
}
