//! The structured event model: severity levels, scalar field values, and
//! the [`Event`] record every sink consumes.
//!
//! Determinism contract: an event's *content* — level, span, name, and
//! every field whose key does **not** end in `_us` — is a pure function of
//! the computation being observed. Wall-clock time only ever appears in
//! the reserved timing slots (`ts_us`, `wall_us`, and `*_us` fields), so
//! two runs of the same seeded experiment produce byte-identical content
//! (see [`Event::content_line`]) while still carrying real timings.

use crate::catalog::{self, EventName};
use crate::json::{escape_into, write_f64, write_u64};
use std::borrow::Cow;

/// Text an event carries: borrowed when it is a literal of the program
/// (catalogue names, field keys, label-like values such as `regime`), so
/// it costs no allocation; owned when computed.
pub(crate) type Text = Cow<'static, str>;

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
    Str(Text),
}

impl Value {
    /// Append the value as a JSON fragment (see [`Scalar::write_json`]).
    pub(crate) fn write_json(&self, out: &mut String) {
        self.scalar().write_json(out);
    }

    /// The value, borrowed.
    pub(crate) fn scalar(&self) -> Scalar<'_> {
        match self {
            Value::Bool(b) => Scalar::Bool(*b),
            Value::I64(i) => Scalar::I64(*i),
            Value::U64(u) => Scalar::U64(*u),
            Value::F64(x) => Scalar::F64(*x),
            Value::Str(s) => Scalar::Str(s),
        }
    }

    /// Render as a JSON value fragment.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Render for the human-readable stderr sink (unquoted strings).
    pub(crate) fn display(&self) -> String {
        match self {
            Value::Str(s) => s.to_string(),
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
/// A literal is borrowed, not copied; computed text comes in as a
/// `String` (the `to_string()` at the emit site is the allocation).
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(Cow::Borrowed(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Cow::Owned(v))
    }
}

/// A field value as a line shows it, its text borrowed from wherever it
/// is kept: a [`Value`] of an event, or a record of a [`crate::Tape`].
#[derive(Clone, Copy)]
pub(crate) enum Scalar<'a> {
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(&'a str),
}

impl Scalar<'_> {
    /// Append the value as a JSON fragment. Finite floats are the bytes
    /// of `{}` ([`write_f64`]) with a decimal point forced, so the
    /// fragment round-trips as a float (`3` would re-parse as an integer).
    pub(crate) fn write_json(self, out: &mut String) {
        match self {
            Scalar::Bool(b) => out.push_str(if b { "true" } else { "false" }),
            Scalar::I64(i) => {
                if i < 0 {
                    out.push('-');
                }
                write_u64(out, i.unsigned_abs());
            }
            Scalar::U64(u) => write_u64(out, u),
            Scalar::F64(x) if x.is_nan() => out.push_str("\"NaN\""),
            Scalar::F64(x) if x.is_infinite() => {
                out.push_str(if x > 0.0 { "\"inf\"" } else { "\"-inf\"" });
            }
            Scalar::F64(x) => {
                if !write_f64(out, x) {
                    out.push_str(".0");
                }
            }
            Scalar::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
        }
    }
}

/// An event's fields: a flat key → [`Value`] map held as one vector
/// sorted by key — the iteration order of the `BTreeMap` it replaced, in
/// one allocation. Writing a key that is already present replaces its
/// value, so an event can never serialize a duplicate JSON member.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fields(Vec<(Text, Value)>);

impl Fields {
    /// Room the first insert makes: the five fields of the per-tick
    /// `sim/step` audit, which 99.5 % of a fleet's captured events fit.
    /// A fleet's capture keeps no event (it encodes each onto a
    /// [`crate::Tape`] and drops it), but a [`crate::MemorySink`] keeps
    /// every one, so spare room there is paid for in memory.
    const ROOM: usize = 5;

    /// Set `key` to `value` (last write wins). A key that sorts after
    /// every one present, as each does when an emit site lists them in
    /// order, is appended without a search.
    pub(crate) fn insert(&mut self, key: Text, value: Value) {
        if self.0.is_empty() {
            self.0.reserve_exact(Self::ROOM);
        }
        if self.0.last().is_none_or(|(last, _)| *last < key) {
            self.0.push((key, value));
            return;
        }
        let at = self.0.partition_point(|(k, _)| *k < key);
        match self.0.get_mut(at) {
            Some((k, slot)) if *k == key => *slot = value,
            _ => self.0.insert(at, (key, value)),
        }
    }

    /// The value of `key`, if the event carries it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let at = self.0.partition_point(|(k, _)| k.as_ref() < key);
        self.0.get(at).filter(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether the event carries `key`.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// The fields in key order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&str, &Value)> {
        self.0.iter().map(|(k, v)| (k.as_ref(), v))
    }

    /// The fields in key order, keys as kept (borrowed literal or owned).
    pub(crate) fn entries(&self) -> &[(Text, Value)] {
        &self.0
    }
}

/// `fields["key"]`; panics, as a map's index does, on a key not carried.
impl std::ops::Index<&str> for Fields {
    type Output = Value;

    #[expect(clippy::expect_used, reason = "Index panics on a missing key, as a map's does; get() is the fallible form")]
    fn index(&self, key: &str) -> &Value {
        self.get(key).expect("no such field")
    }
}

/// One structured event. Built by the emitting site inside an
/// [`crate::Obs::emit`] closure (never constructed when no sink is
/// listening), then shown to every installed sink by reference but the
/// last, which receives it by value. An event built at an emit site owns
/// one allocation, its field vector, plus one per computed string value.
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
    pub span: Text,
    /// Event name within the span (`decision`, `epoch`, `step`, ...).
    pub name: Text,
    /// Flat key → scalar fields, deterministically ordered.
    pub fields: Fields,
    /// Optional span duration in micros (timing only).
    pub wall_us: Option<u64>,
    /// The position in [`catalog::ALL`] of the entry the event was built
    /// from, if it was (see [`Event::entry`]).
    index: Option<u16>,
}

impl Event {
    /// New shell of a catalogued event; `seq`/`ts_us` are stamped by the
    /// [`crate::Obs`] handle at emit time.
    pub fn of(name: EventName) -> Self {
        Self { index: Some(name.index()), ..Self::new(name.level(), name.span(), name.name()) }
    }

    /// The catalogue entry the event was built from ([`Event::of`],
    /// [`crate::Obs::emit`]), found by its remembered position, not by
    /// name; `None` for an [`Event::new`] event, or one whose span or
    /// name was since changed.
    pub(crate) fn entry(&self) -> Option<EventName> {
        let entry = *catalog::ALL.get(usize::from(self.index?))?;
        (self.span == entry.span() && self.name == entry.name()).then_some(entry)
    }

    /// Whether this is an instance of the catalogued event `name`.
    pub fn is(&self, name: EventName) -> bool {
        name.is(&self.span, &self.name)
    }

    /// New event shell named by strings — with [`crate::Obs::info`], the
    /// escape hatch from [`crate::catalog`] that the frozen `ledger/`
    /// benchmark still uses. Workspace code builds events with
    /// [`Event::of`] (rule E1, `clippy.toml`).
    pub fn new(level: Level, span: &'static str, name: &'static str) -> Self {
        Self {
            seq: 0,
            ts_us: 0,
            level,
            span: Cow::Borrowed(span),
            name: Cow::Borrowed(name),
            fields: Fields::default(),
            wall_us: None,
            index: None,
        }
    }

    /// Add a field (builder style inside emit closures). Repeated keys
    /// deduplicate, last write wins — one event can never serialize a
    /// duplicate JSON member, so exposition and diff tooling downstream
    /// may treat field keys as unique.
    pub fn field(&mut self, key: &'static str, value: impl Into<Value>) -> &mut Self {
        self.fields.insert(Cow::Borrowed(key), value.into());
        self
    }

    /// Append the event as one schema-v1 JSONL line (no trailing newline).
    pub(crate) fn write_json(&self, out: &mut String) {
        self.write_line(out, self.seq, self.ts_us, self.wall_us, self.fields.iter());
    }

    /// Append one schema-v1 line (no trailing newline) with the stamps and
    /// the field list the line shows given by the caller — a renumbered
    /// or filtered view of the event. `fields` must come in key order.
    pub(crate) fn write_line<'a>(
        &self,
        out: &mut String,
        seq: u64,
        ts_us: u64,
        wall_us: Option<u64>,
        fields: impl Iterator<Item = (&'a str, &'a Value)>,
    ) {
        open_line(out, seq, ts_us, self.level, &self.span, &self.name);
        for (i, (k, v)) in fields.enumerate() {
            write_member(out, i == 0, k, v.scalar());
        }
        close_line(out, wall_us);
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
        for (k, v) in self.fields.iter() {
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

/// Append a schema-v1 line's opening, through `"fields":{`: the shared
/// start of [`Event::write_line`] and a [`crate::Tape`]'s render.
pub(crate) fn open_line(
    out: &mut String,
    seq: u64,
    ts_us: u64,
    level: Level,
    span: &str,
    name: &str,
) {
    out.push_str("{\"v\":");
    write_u64(out, crate::schema::SCHEMA_VERSION);
    out.push_str(",\"seq\":");
    write_u64(out, seq);
    out.push_str(",\"ts_us\":");
    write_u64(out, ts_us);
    out.push_str(",\"level\":\"");
    out.push_str(level.as_str());
    out.push_str("\",\"span\":\"");
    escape_into(out, span);
    out.push_str("\",\"event\":\"");
    escape_into(out, name);
    out.push_str("\",\"fields\":{");
}

/// Append one member of a line's `fields` object; `first` when it opens it.
pub(crate) fn write_member(out: &mut String, first: bool, key: &str, value: Scalar<'_>) {
    out.push_str(if first { "\"" } else { ",\"" });
    escape_into(out, key);
    out.push_str("\":");
    value.write_json(out);
}

/// Close a line's `fields` object and the line, `wall_us` between them.
pub(crate) fn close_line(out: &mut String, wall_us: Option<u64>) {
    out.push('}');
    if let Some(w) = wall_us {
        out.push_str(",\"wall_us\":");
        write_u64(out, w);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_tsmath::propcheck::forall;
    use rpas_tsmath::{prop_assert, prop_assert_eq};
    use std::collections::BTreeMap;

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
        assert_eq!(e.fields.iter().len(), 2);
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

    /// `to_json` as it was before `write_json`, over the field map events
    /// had before [`Fields`]: a `format!` per member, an `escape_str` per
    /// string, a `String` per value.
    fn reference_json(e: &Event, fields: &BTreeMap<String, Value>) -> String {
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
            fields.iter().map(|(k, v)| format!("\"{}\":{}", escape_str(k), value(v))).collect();
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
            e.ts_us = [u64::MAX, 0, 10, 99, 1_000_000, u64::MAX - 1][i];
            e.wall_us = (i % 2 == 0).then_some(i as u64 * 1000);
            for (j, x) in floats.iter().enumerate().skip(i % 3) {
                e.fields.insert(format!("f{j}{text}").into(), Value::F64(*x));
            }
            e.field("flag", i % 2 == 0).field("neg", -(i as i64) - 1).field("n", i);
            e.field("zero", 0u64).field("umax", u64::MAX).field("imin", i64::MIN);
            e.field(text, *text);
            let map = e.fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
            assert_eq!(e.to_json(), reference_json(&e, &map));
            crate::schema::validate_line(&e.to_json()).expect("schema-valid line");
            let before = line.len();
            e.write_json(&mut line);
            assert_eq!(&line[before..], reference_json(&e, &map));
        }
        assert!(line.starts_with("kept|{\"v\":1,"));
    }

    /// [`Fields`] against the `BTreeMap<String, Value>` it replaced, under
    /// random inserts (literal and computed keys, from an alphabet small
    /// enough to overwrite) and lookups: same members in the same order,
    /// same line.
    #[test]
    fn fields_agree_with_the_btreemap_they_replaced() {
        const KEYS: [&str; 9] = ["step", "tau", "a", "", "wall_us", "ab", "B", "µ", "tenant"];
        forall("fields_vs_btreemap", 400, |g| {
            let mut e = Event::new(Level::Debug, "sim", "step");
            let mut oracle: BTreeMap<String, Value> = BTreeMap::new();
            for op in 0..g.usize_in(0, 24) {
                let key = KEYS[g.usize_in(0, KEYS.len())];
                let value = match g.usize_in(0, 5) {
                    0 => Value::Bool(op % 2 == 0),
                    1 => Value::I64(g.u64() as i64),
                    2 => Value::U64(g.u64() >> g.usize_in(0, 64)),
                    3 => Value::F64(g.f64_in(-1e6, 1e6)),
                    _ => Value::from(["aggressive", "q\"\n", ""][op % 3]),
                };
                match g.usize_in(0, 8) {
                    1..=2 => {
                        e.fields.insert(format!("{key}{}", op % 3).into(), value.clone());
                        oracle.insert(format!("{key}{}", op % 3), value);
                    }
                    _ => {
                        e.field(key, value.clone());
                        oracle.insert(key.to_string(), value);
                    }
                }
                prop_assert_eq!(e.fields.get(key), oracle.get(key));
                prop_assert_eq!(e.fields.contains_key(key), oracle.contains_key(key));
            }
            prop_assert_eq!(e.fields.iter().len(), oracle.len());
            prop_assert!(e.fields.iter().eq(oracle.iter().map(|(k, v)| (k.as_str(), v))));
            prop_assert_eq!(e.to_json(), reference_json(&e, &oracle));
            Ok(())
        });
    }

    #[test]
    fn nonfinite_floats_serialize_as_strings() {
        assert_eq!(Value::F64(f64::NAN).to_json(), "\"NaN\"");
        assert_eq!(Value::F64(f64::INFINITY).to_json(), "\"inf\"");
        assert_eq!(Value::F64(f64::NEG_INFINITY).to_json(), "\"-inf\"");
        assert_eq!(Value::F64(3.0).to_json(), "3.0");
    }
}
