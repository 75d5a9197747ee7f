//! The structured event model: severity levels, scalar field values, and
//! the [`Event`] record every sink consumes.
//!
//! Determinism contract: an event's *content* — level, span, name, and
//! every field whose key does **not** end in `_us` — is a pure function of
//! the computation being observed. Wall-clock time only ever appears in
//! the reserved timing slots (`ts_us`, `wall_us`, and `*_us` fields), so
//! two runs of the same seeded experiment produce byte-identical content
//! (see [`Event::content_line`]) while still carrying real timings.

use crate::catalog::EventName;
use crate::json::escape_into;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Severity of an event, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// The operation failed or produced unusable output.
    Error,
    /// Something suspicious (NaN guard, empty window) worth surfacing.
    Warn,
    /// Run-level milestones: phase starts, plan summaries, reports.
    Info,
    /// Per-step detail: decision audits, per-epoch losses, sim steps.
    Debug,
}

impl Level {
    /// Lower-case name used in the JSONL schema and `RPAS_LOG`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parse an `RPAS_LOG`-style name (`off` is handled by the caller).
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// A scalar field value. Deliberately no nested structure: flat fields
/// keep the JSONL schema greppable and the stderr rendering one-line.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Boolean flag.
    Bool(bool),
    /// Signed integer (deltas, regret).
    I64(i64),
    /// Unsigned integer (counts, indices, node totals).
    U64(u64),
    /// Floating-point measurement. Non-finite values serialize as the
    /// strings `"NaN"`, `"inf"`, `"-inf"` (JSON has no literal for them).
    F64(f64),
    /// Short free-form text (names, regimes, encoded histograms).
    Str(String),
}

impl Value {
    /// Append the value as a JSON fragment. Finite floats are
    /// `{}`-formatted with a decimal point or exponent forced, so the
    /// fragment round-trips as a float (`3` would re-parse as an integer).
    pub fn write_json(&self, out: &mut String) {
        match self {
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::I64(i) => {
                let _ = write!(out, "{i}");
            }
            Value::U64(u) => {
                let _ = write!(out, "{u}");
            }
            Value::F64(x) if x.is_nan() => out.push_str("\"NaN\""),
            Value::F64(x) if x.is_infinite() => {
                out.push_str(if *x > 0.0 { "\"inf\"" } else { "\"-inf\"" });
            }
            Value::F64(x) => {
                let start = out.len();
                let _ = write!(out, "{x}");
                if !out[start..].contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            Value::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
        }
    }

    /// Render as a JSON value fragment.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Render for the human-readable stderr sink (unquoted strings).
    pub fn display(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            other => other.to_json(),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One structured event. Built by the emitting site inside an
/// [`crate::Obs::emit`] closure (never constructed when no sink is
/// listening), then fanned out to every installed sink by reference.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotone sequence number within one [`crate::Obs`] handle.
    pub seq: u64,
    /// Wall-clock micros since the Unix epoch (timing only; excluded from
    /// the deterministic content).
    pub ts_us: u64,
    /// Severity.
    pub level: Level,
    /// The subsystem / span this event belongs to (`plan`, `train.tft`,
    /// `sim`, `rolling`, ...).
    pub span: String,
    /// Event name within the span (`decision`, `epoch`, `step`, ...).
    pub name: String,
    /// Flat key → scalar fields, deterministically ordered.
    pub fields: BTreeMap<String, Value>,
    /// Optional span duration in micros (timing only).
    pub wall_us: Option<u64>,
}

impl Event {
    /// New shell of a catalogued event; `seq`/`ts_us` are stamped by the
    /// [`crate::Obs`] handle at emit time.
    pub fn of(name: EventName) -> Self {
        Self::new(name.level(), name.span(), name.name())
    }

    /// Whether this is an instance of the catalogued event `name`.
    pub fn is(&self, name: EventName) -> bool {
        name.is(&self.span, &self.name)
    }

    /// New event shell named by strings — with [`crate::Obs::info`], the
    /// escape hatch from [`crate::catalog`] that the frozen `ledger/`
    /// benchmark still uses. Workspace code builds events with
    /// [`Event::of`] (lint rule E1).
    pub fn new(level: Level, span: &str, name: &str) -> Self {
        Self {
            seq: 0,
            ts_us: 0,
            level,
            span: span.to_string(),
            name: name.to_string(),
            fields: BTreeMap::new(),
            wall_us: None,
        }
    }

    /// Add a field (builder style inside emit closures). Repeated keys
    /// deduplicate, last write wins — one event can never serialize a
    /// duplicate JSON member, so exposition and diff tooling downstream
    /// may treat field keys as unique.
    pub fn field(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        self.fields.insert(key.to_string(), value.into());
        self
    }

    /// Append the event as one schema-v1 JSONL line (no trailing newline).
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"v\":{},\"seq\":{},\"ts_us\":{},\"level\":\"{}\",\"span\":\"",
            crate::schema::SCHEMA_VERSION,
            self.seq,
            self.ts_us,
            self.level.as_str(),
        );
        escape_into(out, &self.span);
        out.push_str("\",\"event\":\"");
        escape_into(out, &self.name);
        out.push_str("\",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            out.push_str(if i > 0 { ",\"" } else { "\"" });
            escape_into(out, k);
            out.push_str("\":");
            v.write_json(out);
        }
        out.push('}');
        if let Some(w) = self.wall_us {
            let _ = write!(out, ",\"wall_us\":{w}");
        }
        out.push('}');
    }

    /// Serialize as one schema-v1 JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        self.write_json(&mut out);
        out
    }

    /// The deterministic content of the event: level, span, name, and all
    /// non-timing fields (keys ending in `_us` are timing by contract).
    /// Two runs of the same seeded computation must produce identical
    /// content lines even though `to_json` differs in `ts_us`/`wall_us`.
    pub fn content_line(&self) -> String {
        let mut out = format!("{} {}/{}", self.level.as_str(), self.span, self.name);
        for (k, v) in &self.fields {
            if k.ends_with("_us") {
                continue;
            }
            out.push(' ');
            out.push_str(k);
            out.push('=');
            v.write_json(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_by_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("verbose"), None);
    }

    #[test]
    fn json_line_shape() {
        let mut e = Event::new(Level::Info, "plan", "decision");
        e.field("step", 3usize).field("tau", 0.95).field("regime", "conservative");
        e.seq = 7;
        e.ts_us = 123;
        let s = e.to_json();
        assert!(s.starts_with("{\"v\":1,\"seq\":7,\"ts_us\":123,"), "{s}");
        assert!(s.contains("\"regime\":\"conservative\""));
        assert!(s.contains("\"step\":3"));
        assert!(s.contains("\"tau\":0.95"));
    }

    #[test]
    fn repeated_field_keys_deduplicate_last_write_wins() {
        let mut e = Event::new(Level::Info, "s", "n");
        e.field("k", 1u64).field("other", true).field("k", "two").field("k", 3u64);
        assert_eq!(e.fields.len(), 2);
        assert_eq!(e.fields.get("k"), Some(&Value::U64(3)));
        // Exactly one serialized member for the repeated key.
        let json = e.to_json();
        assert_eq!(json.matches("\"k\":").count(), 1);
        assert!(json.contains("\"k\":3"));
        assert_eq!(e.content_line().matches(" k=").count(), 1);
    }

    #[test]
    fn content_line_excludes_timing() {
        let mut a = Event::new(Level::Debug, "rolling", "window");
        a.field("index", 0usize).field("forecast_us", 123u64);
        a.ts_us = 1;
        a.wall_us = Some(55);
        let mut b = a.clone();
        b.ts_us = 999;
        b.wall_us = Some(77);
        b.field("forecast_us", 456u64);
        assert_eq!(a.content_line(), b.content_line());
        assert_ne!(a.to_json(), b.to_json());
    }

    /// `to_json` as it was before `write_json`: a `format!` per member,
    /// an `escape_str` per string, a `String` per value.
    fn reference_json(e: &Event) -> String {
        use crate::json::escape_str;
        let value = |v: &Value| match v {
            Value::Bool(b) => b.to_string(),
            Value::I64(i) => i.to_string(),
            Value::U64(u) => u.to_string(),
            Value::F64(x) if x.is_nan() => "\"NaN\"".to_string(),
            Value::F64(x) if x.is_infinite() => {
                if *x > 0.0 { "\"inf\"".to_string() } else { "\"-inf\"".to_string() }
            }
            Value::F64(x) => {
                let s = format!("{x}");
                if s.contains(['.', 'e', 'E']) { s } else { format!("{s}.0") }
            }
            Value::Str(s) => format!("\"{}\"", escape_str(s)),
        };
        let fields: Vec<String> =
            e.fields.iter().map(|(k, v)| format!("\"{}\":{}", escape_str(k), value(v))).collect();
        format!(
            "{{\"v\":1,\"seq\":{},\"ts_us\":{},\"level\":\"{}\",\
             \"span\":\"{}\",\"event\":\"{}\",\"fields\":{{{}}}{}}}",
            e.seq,
            e.ts_us,
            e.level.as_str(),
            escape_str(&e.span),
            escape_str(&e.name),
            fields.join(","),
            e.wall_us.map_or(String::new(), |w| format!(",\"wall_us\":{w}")),
        )
    }

    #[test]
    fn write_json_appends_the_bytes_to_json_always_rendered() {
        let floats = [
            0.0, -0.0, 3.0, 0.95, -1.5e-7, 1e21, 1e300, f64::MIN_POSITIVE, f64::NAN, f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let texts =
            ["", "plain", "q\"uo\\te", "tab\there\nline\r", "\u{1}ctl\u{1f}", "µ—漢🦀"];
        let levels = [Level::Error, Level::Warn, Level::Info, Level::Debug];
        let mut line = String::from("kept|");
        for (i, text) in texts.iter().enumerate() {
            let mut e = Event::new(levels[i % 4], text, texts[(i + 1) % texts.len()]);
            e.seq = i as u64;
            e.ts_us = u64::MAX - i as u64;
            e.wall_us = (i % 2 == 0).then_some(i as u64 * 1000);
            for (j, x) in floats.iter().enumerate().skip(i % 3) {
                e.field(&format!("f{j}{text}"), *x);
            }
            e.field("flag", i % 2 == 0).field("neg", -(i as i64) - 1).field("n", i);
            e.field(text, *text);
            assert_eq!(e.to_json(), reference_json(&e));
            crate::schema::validate_line(&e.to_json()).expect("schema-valid line");
            let before = line.len();
            e.write_json(&mut line);
            assert_eq!(&line[before..], reference_json(&e));
        }
        assert!(line.starts_with("kept|{\"v\":1,"));
    }

    #[test]
    fn nonfinite_floats_serialize_as_strings() {
        assert_eq!(Value::F64(f64::NAN).to_json(), "\"NaN\"");
        assert_eq!(Value::F64(f64::INFINITY).to_json(), "\"inf\"");
        assert_eq!(Value::F64(f64::NEG_INFINITY).to_json(), "\"-inf\"");
        assert_eq!(Value::F64(3.0).to_json(), "3.0");
    }
}
