//! The checked-in obs event registry (`events-registry.json`): the
//! closed set of `span/event` names the workspace may emit, so emitters
//! and the trace tooling (`trace-report`, `obs query`) cannot drift
//! apart silently.
//!
//! Format (one entry per line, sorted by name, stable —
//! `tests/selfcheck.rs` diffs a regenerated copy byte-for-byte):
//!
//! ```json
//! {
//!   "version": 1,
//!   "events": [
//!     { "name": "plan/decision" },
//!     { "name": "telemetry/histogram", "dynamic": true }
//!   ]
//! }
//! ```
//!
//! A `dynamic` entry documents an event whose span (or name) is built at
//! runtime, so no fully-literal emit site exists for it: the E1 orphan
//! check exempts it, and the runtime containment test
//! (`tests/events_registry.rs`) covers it instead.

use crate::json::Scanner;
use std::collections::BTreeSet;

/// One registry entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventEntry {
    /// Full `span/event` name.
    pub name: String,
    /// Runtime-constructed name: exempt from the static orphan check.
    pub dynamic: bool,
    /// 1-based line of the entry in the registry file (for anchoring
    /// orphan diagnostics).
    pub line: u32,
}

/// The parsed registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventsRegistry {
    /// All entries in file order.
    pub events: Vec<EventEntry>,
}

impl EventsRegistry {
    /// Is `name` registered (static or dynamic)?
    pub fn contains(&self, name: &str) -> bool {
        self.events.iter().any(|e| e.name == name)
    }

    /// Does any entry's name start with `span/`?
    pub fn has_span(&self, span: &str) -> bool {
        let prefix = format!("{span}/");
        self.events.iter().any(|e| e.name.starts_with(&prefix))
    }

    /// Does any *dynamic* entry's name end in `/event`?
    pub fn has_dynamic_event(&self, event: &str) -> bool {
        let suffix = format!("/{event}");
        self.events.iter().any(|e| e.dynamic && e.name.ends_with(&suffix))
    }

    /// All names, for set comparisons.
    pub fn names(&self) -> BTreeSet<String> {
        self.events.iter().map(|e| e.name.clone()).collect()
    }
}

/// Serialise a registry from a sorted static name set plus the dynamic
/// name set. Stable output: sorted by name, one entry per line.
pub fn to_json(static_names: &BTreeSet<String>, dynamic_names: &BTreeSet<String>) -> String {
    let mut all: Vec<(&String, bool)> = static_names
        .iter()
        .filter(|n| !dynamic_names.contains(*n))
        .map(|n| (n, false))
        .chain(dynamic_names.iter().map(|n| (n, true)))
        .collect();
    all.sort();
    let mut out = String::from("{\n  \"version\": 1,\n  \"events\": [");
    for (i, (name, dynamic)) in all.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    { \"name\": \"");
        out.push_str(name);
        out.push('"');
        if *dynamic {
            out.push_str(", \"dynamic\": true");
        }
        out.push_str(" }");
    }
    if !all.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Parse the registry format written by [`to_json`] (whitespace-
/// insensitive, but only this shape).
pub fn parse(src: &str) -> Result<EventsRegistry, String> {
    let mut p = Scanner::new(src);
    let mut reg = EventsRegistry::default();
    let mut version_seen = false;
    p.expect_byte(b'{')?;
    loop {
        let key = p.string()?;
        p.expect_byte(b':')?;
        match key.as_str() {
            "version" => {
                let v = p.integer()?;
                if v != 1 {
                    return Err(format!("unsupported registry version {v}"));
                }
                version_seen = true;
            }
            "events" => {
                p.expect_byte(b'[')?;
                if !p.try_byte(b']') {
                    loop {
                        p.expect_byte(b'{')?;
                        let entry_line = p.line;
                        let mut name = None;
                        let mut dynamic = false;
                        loop {
                            let k = p.string()?;
                            p.expect_byte(b':')?;
                            match k.as_str() {
                                "name" => name = Some(p.string()?),
                                "dynamic" => dynamic = p.boolean()?,
                                other => return Err(format!("unknown entry key {other:?}")),
                            }
                            if !p.try_byte(b',') {
                                break;
                            }
                        }
                        p.expect_byte(b'}')?;
                        let name = name.ok_or("entry missing \"name\"")?;
                        if name.is_empty() || !name.contains('/') {
                            return Err(format!(
                                "event name {name:?} is not of the form \"span/event\""
                            ));
                        }
                        if reg.contains(&name) {
                            return Err(format!("duplicate event name {name:?}"));
                        }
                        reg.events.push(EventEntry { name, dynamic, line: entry_line });
                        if !p.try_byte(b',') {
                            break;
                        }
                    }
                    p.expect_byte(b']')?;
                }
            }
            other => return Err(format!("unknown registry key {other:?}")),
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
    Ok(reg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn roundtrip_is_exact_and_sorted() {
        let j = to_json(&set(&["sim/step", "plan/decision"]), &set(&["telemetry/histogram"]));
        let reg = parse(&j).expect("roundtrip");
        let names: Vec<_> = reg.events.iter().map(|e| (e.name.as_str(), e.dynamic)).collect();
        assert_eq!(
            names,
            vec![("plan/decision", false), ("sim/step", false), ("telemetry/histogram", true)]
        );
        // One entry per line, so shell-level edits in the verify negative
        // gate can inject/remove a single entry.
        assert_eq!(j.lines().filter(|l| l.contains("\"name\"")).count(), 3);
        assert_eq!(to_json(&reg.names(), &set(&["telemetry/histogram"])), j);
    }

    #[test]
    fn entry_lines_anchor_orphan_diagnostics() {
        let j = to_json(&set(&["a/b", "c/d"]), &BTreeSet::new());
        let reg = parse(&j).expect("parse");
        assert_eq!(reg.events[0].line, 4);
        assert_eq!(reg.events[1].line, 5);
    }

    #[test]
    fn lookup_helpers() {
        let reg =
            parse(&to_json(&set(&["plan/decision"]), &set(&["telemetry/histogram"]))).expect("parse");
        assert!(reg.contains("plan/decision"));
        assert!(!reg.contains("plan/summary"));
        assert!(reg.has_span("plan"));
        assert!(!reg.has_span("sim"));
        assert!(reg.has_dynamic_event("histogram"));
        assert!(!reg.has_dynamic_event("decision"));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse("").is_err());
        assert!(parse("{\"version\": 2, \"events\": []}").is_err());
        assert!(parse("{\"events\": []}").is_err()); // missing version
        assert!(parse("{\"version\": 1, \"events\": [{\"dynamic\": true}]}").is_err());
        assert!(parse("{\"version\": 1, \"events\": [{\"name\": \"noslash\"}]}").is_err());
        let dup = "{\"version\": 1, \"events\": [{\"name\": \"a/b\"}, {\"name\": \"a/b\"}]}";
        assert!(parse(dup).unwrap_err().contains("duplicate"));
        assert!(parse("{\"version\": 1, \"events\": []} x").is_err());
    }

    #[test]
    fn empty_registry_roundtrips() {
        let j = to_json(&BTreeSet::new(), &BTreeSet::new());
        assert_eq!(parse(&j).expect("parse").events.len(), 0);
    }
}
