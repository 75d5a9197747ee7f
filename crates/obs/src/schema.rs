//! Schema v1 of the JSONL trace format, and its validator.
//!
//! One event per line, a flat JSON object with exactly these members:
//!
//! | key       | type            | required | meaning                              |
//! |-----------|-----------------|----------|--------------------------------------|
//! | `v`       | integer `1`     | yes      | schema version                       |
//! | `seq`     | integer ≥ 0     | yes      | per-process emit order               |
//! | `ts_us`   | integer ≥ 0     | yes      | wall clock, µs since the Unix epoch  |
//! | `level`   | string          | yes      | `error` / `warn` / `info` / `debug`  |
//! | `span`    | string          | yes      | subsystem (`plan`, `sim`, ...)       |
//! | `event`   | string          | yes      | event name within the span           |
//! | `fields`  | object          | yes      | flat scalar key→value payload        |
//! | `wall_us` | integer ≥ 0     | no       | span duration, µs                    |
//!
//! `fields` values are booleans, numbers, or strings only (no nesting).
//! Keys ending in `_us` — and the `ts_us`/`wall_us` members — are timing
//! and excluded from deterministic-content comparisons.

use crate::event::Level;
use crate::json::{f64_string, parse, Json};

/// Current trace-format version, written into every line's `v` member.
pub const SCHEMA_VERSION: u64 = 1;

/// A parsed, schema-checked trace line.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLine {
    /// Emit order.
    pub seq: u64,
    /// Wall-clock micros since epoch.
    pub ts_us: u64,
    /// Severity.
    pub level: Level,
    /// Span name.
    pub span: String,
    /// Event name.
    pub event: String,
    /// Flat payload (scalar JSON values).
    pub fields: std::collections::BTreeMap<String, Json>,
    /// Optional span duration.
    pub wall_us: Option<u64>,
}

impl TraceLine {
    /// Whether this line records the catalogued event `name`.
    pub fn is(&self, name: crate::catalog::EventName) -> bool {
        name.is(&self.span, &self.event)
    }

    /// A field as f64, accepting both numbers and the non-finite string
    /// encodings (`"NaN"`, `"inf"`, `"-inf"`).
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.fields.get(key)? {
            Json::Num(n) => Some(*n),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// A field as string.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.fields.get(key)?.as_str()
    }
}

fn req_uint(obj: &std::collections::BTreeMap<String, Json>, key: &str) -> Result<u64, String> {
    let n = obj
        .get(key)
        .ok_or_else(|| format!("missing required member {key:?}"))?
        .as_num()
        .ok_or_else(|| format!("member {key:?} must be a number"))?;
    if n < 0.0 || n.fract() != 0.0 || !n.is_finite() {
        return Err(format!("member {key:?} must be a non-negative integer, got {}", f64_string(n)));
    }
    Ok(n as u64)
}

fn req_str<'a>(
    obj: &'a std::collections::BTreeMap<String, Json>,
    key: &str,
) -> Result<&'a str, String> {
    obj.get(key)
        .ok_or_else(|| format!("missing required member {key:?}"))?
        .as_str()
        .ok_or_else(|| format!("member {key:?} must be a string"))
}

/// Validate one JSONL line against schema v1.
///
/// # Errors
/// Returns a human-readable description of the first violation.
pub fn validate_line(line: &str) -> Result<TraceLine, String> {
    let doc = parse(line)?;
    let obj = doc.as_obj().ok_or("trace line must be a JSON object")?;

    const ALLOWED: [&str; 8] = ["v", "seq", "ts_us", "level", "span", "event", "fields", "wall_us"];
    for key in obj.keys() {
        if !ALLOWED.contains(&key.as_str()) {
            return Err(format!("unknown member {key:?}"));
        }
    }

    let v = req_uint(obj, "v")?;
    if v != SCHEMA_VERSION {
        return Err(format!("unsupported schema version {v} (expected {SCHEMA_VERSION})"));
    }
    let seq = req_uint(obj, "seq")?;
    let ts_us = req_uint(obj, "ts_us")?;
    let level = Level::parse(req_str(obj, "level")?)
        .ok_or_else(|| format!("invalid level {:?}", obj["level"]))?;
    let span = req_str(obj, "span")?.to_string();
    let event = req_str(obj, "event")?.to_string();

    let fields = obj
        .get("fields")
        .ok_or("missing required member \"fields\"")?
        .as_obj()
        .ok_or("member \"fields\" must be an object")?;
    for (k, val) in fields {
        match val {
            Json::Bool(_) | Json::Num(_) | Json::Str(_) => {}
            _ => return Err(format!("field {k:?} must be a scalar (bool/number/string)")),
        }
    }

    let wall_us = match obj.get("wall_us") {
        None => None,
        Some(_) => Some(req_uint(obj, "wall_us")?),
    };

    Ok(TraceLine { seq, ts_us, level, span, event, fields: fields.clone(), wall_us })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    #[test]
    fn emitted_events_validate() {
        let mut e = Event::new(Level::Debug, "plan", "decision");
        e.field("step", 4usize)
            .field("uncertainty", 12.5)
            .field("regime", "conservative")
            .field("ok", true)
            .field("nan", f64::NAN);
        e.seq = 3;
        e.ts_us = 1_000;
        e.wall_us = Some(17);
        let t = validate_line(&e.to_json()).expect("valid line");
        assert_eq!(t.seq, 3);
        assert_eq!(t.level, Level::Debug);
        assert_eq!(t.span, "plan");
        assert_eq!(t.event, "decision");
        assert_eq!(t.num("step"), Some(4.0));
        assert!(t.num("nan").unwrap().is_nan());
        assert_eq!(t.str("regime"), Some("conservative"));
        assert_eq!(t.wall_us, Some(17));
    }

    #[test]
    fn rejects_schema_violations() {
        // Not JSON at all.
        assert!(validate_line("not json").is_err());
        // Wrong version.
        assert!(validate_line(
            r#"{"v":2,"seq":0,"ts_us":0,"level":"info","span":"s","event":"e","fields":{}}"#
        )
        .is_err());
        // Missing member.
        assert!(validate_line(r#"{"v":1,"seq":0,"ts_us":0,"level":"info","span":"s"}"#).is_err());
        // Bad level.
        assert!(validate_line(
            r#"{"v":1,"seq":0,"ts_us":0,"level":"loud","span":"s","event":"e","fields":{}}"#
        )
        .is_err());
        // Nested field value.
        assert!(validate_line(
            r#"{"v":1,"seq":0,"ts_us":0,"level":"info","span":"s","event":"e","fields":{"x":[1]}}"#
        )
        .is_err());
        // Unknown top-level member.
        assert!(validate_line(
            r#"{"v":1,"seq":0,"ts_us":0,"level":"info","span":"s","event":"e","fields":{},"extra":1}"#
        )
        .is_err());
        // Negative seq.
        assert!(validate_line(
            r#"{"v":1,"seq":-1,"ts_us":0,"level":"info","span":"s","event":"e","fields":{}}"#
        )
        .is_err());
    }
}
