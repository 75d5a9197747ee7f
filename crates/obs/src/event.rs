//! The structured event model: severity levels, scalar field values, and
//! the [`Event`] record every sink consumes.
//!
//! Determinism contract: an event's *content* — level, span, name, and
//! every field whose key does **not** end in `_us` — is a pure function of
//! the computation being observed. Wall-clock time only ever appears in
//! the reserved timing slots (`ts_us`, `wall_us`, and `*_us` fields), so
//! two runs of the same seeded experiment produce byte-identical content
//! (see [`Event::content_line`]) while still carrying real timings.
//!
//! An event is one record of words on a [`Tape`], built in place by its
//! emit site (see [`Event`] for which tape):
//!
//! * a header word: the catalogue entry's position in [`catalog::ALL`]
//!   (or [`NO_ENTRY`]), the level, and the count of fields;
//! * for an event with no entry, its span and name as two string words;
//! * one 7-bit meta per field, [`METAS_PER_WORD`] to a word: a value tag
//!   and the key's slot in the entry's sorted `keys`, or [`SPELLED`] for a
//!   key the entry does not declare;
//! * the fields in key order: the key as a string word if it is spelled,
//!   then one payload word (a bool, the bits of an integer or a float, or
//!   a string word). A `sim/step` is 7 words with its header.
//!
//! A string word is a literal's index among the tape's interned
//! literals, or, with its low bit set, the byte length of a computed
//! string in the tape's text, where a record's computed strings lie in
//! the order of its words. [`render_line`] renders a record.

use crate::catalog::{self, EventName};
use crate::json::{escape_into, write_f64, write_u64};
use crate::tape::{Cursor, Payload, Tape};
use std::borrow::Cow;

/// Header entry bits of an event no catalogue entry describes.
const NO_ENTRY: u64 = 0xFFFF;
/// Key slot of a key spelled out in the record.
const SPELLED: u64 = 0xF;
/// 7-bit metas in one word.
const METAS_PER_WORD: usize = 9;
/// The key a labelled line carries its label under.
const LABEL_KEY: &str = "tenant";
/// The catalogue as one static: a record's header indexes it. Code
/// inlined into other crates reads this one copy; naming the `const`
/// there would place a copy of the catalogue in each.
static ENTRIES: &[EventName] = catalog::ALL;
/// Levels by their header bits.
const LEVELS: [Level; 4] = [Level::Error, Level::Warn, Level::Info, Level::Debug];

// Every entry's index fits the header, and every declared key a slot.
const _: () = {
    assert!((catalog::ALL.len() as u64) < NO_ENTRY);
    let mut i = 0;
    while i < catalog::ALL.len() {
        assert!((catalog::ALL[i].keys().len() as u64) <= SPELLED);
        i += 1;
    }
};

/// Value tags of a meta.
const BOOL: u64 = 0;
const I64: u64 = 1;
const U64: u64 = 2;
const F64: u64 = 3;
const STR: u64 = 4;

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
        LEVELS.into_iter().find(|level| level.as_str() == s)
    }
}

/// A scalar field value. Deliberately no nested structure: flat fields
/// keep the JSONL schema greppable and the stderr rendering one-line.
/// An emit site gives a `Value<'static>`; one read back from a record
/// borrows its text from the event or tape that keeps it.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
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
    Str(Cow<'a, str>),
}

/// A literal is borrowed, not copied; computed text comes in as a
/// `String` (the `to_string()` at the emit site is the allocation).
macro_rules! value_from {
    ($($t:ty => |$v:ident| $value:expr,)*) => {$(
        impl From<$t> for Value<'static> {
            fn from($v: $t) -> Self {
                $value
            }
        }
    )*};
}

value_from! {
    bool => |v| Value::Bool(v),
    i64 => |v| Value::I64(v),
    u64 => |v| Value::U64(v),
    usize => |v| Value::U64(v as u64),
    u32 => |v| Value::U64(u64::from(v)),
    f64 => |v| Value::F64(v),
    &'static str => |v| Value::Str(Cow::Borrowed(v)),
    String => |v| Value::Str(Cow::Owned(v)),
}

impl Value<'_> {
    /// Append the value as a JSON fragment. Finite floats are the bytes
    /// of `{}` ([`write_f64`]) with a decimal point forced, so the
    /// fragment round-trips as a float (`3` would re-parse as an integer).
    pub(crate) fn write_json(&self, out: &mut String) {
        match *self {
            Value::Bool(b) => out.push_str(if b { "true" } else { "false" }),
            Value::I64(i) => {
                if i < 0 {
                    out.push('-');
                }
                write_u64(out, i.unsigned_abs());
            }
            Value::U64(u) => write_u64(out, u),
            Value::F64(x) if x.is_nan() => out.push_str("\"NaN\""),
            Value::F64(x) if x.is_infinite() => {
                out.push_str(if x > 0.0 { "\"inf\"" } else { "\"-inf\"" });
            }
            Value::F64(x) => {
                if !write_f64(out, x) {
                    out.push_str(".0");
                }
            }
            Value::Str(ref s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
        }
    }
}

/// How a record is named: by its catalogue entry, or, for the escape
/// hatch, by a level and two strings.
#[derive(Clone, Copy)]
pub(crate) enum Head {
    Entry(EventName),
    Named(Level, &'static str, &'static str),
}

impl Head {
    pub(crate) fn level(self) -> Level {
        match self {
            Head::Entry(name) => name.level(),
            Head::Named(level, ..) => level,
        }
    }
}

/// One structured event: its record, open on a tape, and the stamps a
/// handle sets as it dispatches. An emit builds it in place inside an
/// [`crate::Obs::emit`] closure (never when no sink is listening): on a
/// capture's tape, where the record stays, or on the handle's scratch
/// tape, which every installed sink is shown by reference and which is
/// emptied once they have read it. Neither allocates once the tape has
/// room; a computed string value is the emit site's allocation, copied
/// into the tape's text. An event made by [`Event::of`] or [`Event::new`]
/// owns a tape of its own.
#[derive(Debug, Clone)]
#[repr(C)] // the stamps ahead of the tape's ends (see `sink::Inner`)
pub struct Event {
    /// Monotone sequence number within one [`crate::Obs`] handle.
    pub seq: u64,
    /// Wall-clock micros since the Unix epoch (timing only; excluded from
    /// the deterministic content).
    pub ts_us: u64,
    /// Optional span duration in micros (timing only).
    pub wall_us: Option<u64>,
    /// The tape the record is open on.
    pub(crate) tape: Tape,
}

impl Event {
    /// New shell of a catalogued event; `seq`/`ts_us` are stamped by the
    /// [`crate::Obs`] handle at emit time.
    pub fn of(name: EventName) -> Self {
        Self::opened(&Head::Entry(name))
    }

    /// New event shell named by strings — with [`crate::Obs::info`], the
    /// escape hatch from [`crate::catalog`] that the frozen `ledger/`
    /// benchmark still uses. Workspace code builds events with
    /// [`Event::of`] (rule E1, `clippy.toml`). Every key it is given is
    /// spelled out; its record is reserved for one meta word's fields.
    pub fn new(level: Level, span: &'static str, name: &'static str) -> Self {
        Self::opened(&Head::Named(level, span, name))
    }

    /// An event on its own tape, its record open.
    pub(crate) fn opened(head: &Head) -> Self {
        let mut event = Self::on(Tape::default());
        event.open(head);
        event
    }

    /// An event whose records go on `tape`; none is open yet.
    pub(crate) fn on(tape: Tape) -> Self {
        Self { seq: 0, ts_us: 0, wall_us: None, tape }
    }

    /// Open a record after the tape's closed ones, reserved for every key
    /// the entry declares, and clear the stamps. A record left open by a
    /// build that panicked is dropped first.
    #[inline]
    pub(crate) fn open(&mut self, head: &Head) {
        (self.seq, self.ts_us, self.wall_us) = (0, 0, None);
        let tape = &mut self.tape;
        tape.drop_open();
        match *head {
            Head::Entry(name) => {
                let keys = name.keys().len();
                tape.words.reserve(1 + keys.div_ceil(METAS_PER_WORD) + keys);
                tape.words.push(u64::from(name.index()) << 48 | (name.level() as u64) << 32);
            }
            Head::Named(level, span, name) => {
                tape.words.reserve(3 + 1 + 2 * METAS_PER_WORD);
                tape.words.push(NO_ENTRY << 48 | (level as u64) << 32);
                for s in [span, name] {
                    let word = tape.intern(s);
                    tape.words.push(word);
                }
            }
        }
    }

    /// The record, read from its header; iterating it yields the fields
    /// in key order.
    pub(crate) fn record(&self) -> Record<'_, Cursor<'_>> {
        self.tape.record(self.tape.at, self.tape.byte)
    }

    /// Severity.
    pub fn level(&self) -> Level {
        self.record().level
    }

    /// The subsystem / span this event belongs to (`plan`, `sim`, ...).
    pub fn span(&self) -> &str {
        self.record().span
    }

    /// Event name within the span (`decision`, `step`, ...).
    pub fn name(&self) -> &str {
        self.record().name
    }

    /// Whether this is an instance of the catalogued event `name`.
    pub fn is(&self, name: EventName) -> bool {
        name.is(self.span(), self.name())
    }

    /// The value of `key`, if the event carries it.
    pub fn get(&self, key: &str) -> Option<Value<'_>> {
        self.record().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Add a field (builder style inside emit closures). Repeated keys
    /// deduplicate, last write wins — one event can never serialize a
    /// duplicate JSON member, so exposition and diff tooling downstream
    /// may treat field keys as unique.
    pub fn field(&mut self, key: &'static str, value: impl Into<Value<'static>>) -> &mut Self {
        self.set(key, value.into());
        self
    }

    /// Write `key`'s field. After a last field whose key the entry
    /// declares, a key listed in catalogue order is found by a forward
    /// cursor from that key's slot and appended, its computed text (if
    /// any) at the end of the tape's, without a comparison of order or a
    /// walk of the record; any other key goes to [`Event::place`]. Inlined
    /// into every emit site, where the value's kind is known, so a scalar
    /// field is a few instructions (a call per field cost a captured
    /// `sim/step` about half again).
    #[inline(always)]
    fn set(&mut self, key: &'static str, value: Value<'static>) {
        let (tag, payload) = match value {
            Value::Bool(b) => (BOOL, Payload::Word(u64::from(b))),
            Value::I64(x) => (I64, Payload::Word(x as u64)),
            Value::U64(x) => (U64, Payload::Word(x)),
            Value::F64(x) => (F64, Payload::Word(x.to_bits())),
            Value::Str(s) => (STR, Payload::Text(s)),
        };
        let at = self.tape.at;
        let head = self.tape.words[at];
        let n = head as u32 as usize;
        let (keys, metas) = match ENTRIES.get((head >> 48) as usize) {
            Some(entry) => (entry.keys(), at + 1),
            None => (&[][..], at + 3),
        };
        // A spelled last key's slot is past every entry's keys.
        let from = n.checked_sub(1).map_or(0, |last| (self.meta(metas, last) >> 3) as usize + 1);
        // A tenth, nineteenth... field's meta word goes in ahead of the
        // payloads: `place` inserts it.
        let next = keys.get(from..).and_then(|rest| rest.iter().position(|k| *k == key));
        match next.filter(|_| n == 0 || !n.is_multiple_of(METAS_PER_WORD)) {
            Some(next) => {
                let word = self.tape.encode(payload, self.tape.text.len(), 0);
                if n == 0 {
                    self.tape.words.push(0);
                }
                self.tape.words.push(word);
                self.put_meta(metas, n, tag | ((from + next) as u64) << 3);
                self.tape.words[at] += 1;
            }
            None => self.place(key, tag, payload),
        }
    }

    /// Write `key`'s field in its sorted place, or over its old value, by
    /// a walk of the fields; its text goes in after the text of the
    /// fields before it.
    #[inline(never)]
    fn place(&mut self, key: &'static str, tag: u64, payload: Payload) {
        let mut fields = self.record();
        let (keys, n, metas) = (fields.keys, fields.n, fields.metas);
        let (mut i, mut p, mut byte, mut same) = (0, fields.at, fields.words.byte, false);
        while let Some((k, _)) = fields.next() {
            if k >= key {
                same = k == key;
                break;
            }
            (i, p, byte) = (i + 1, fields.at, fields.words.byte);
        }
        if same {
            let meta = self.meta(metas, i);
            let p = p + usize::from(meta >> 3 == SPELLED);
            let old = self.tape.words[p];
            let gone = if meta & 7 == STR && old & 1 == 1 { (old >> 1) as usize } else { 0 };
            self.tape.words[p] = self.tape.encode(payload, byte, gone);
            self.put_meta(metas, i, meta & !7 | tag);
            return;
        }
        let slot = keys.iter().position(|k| *k == key).map_or(SPELLED, |s| s as u64);
        let payload = self.tape.encode(payload, byte, 0);
        if n.is_multiple_of(METAS_PER_WORD) {
            self.tape.words.insert(metas + n / METAS_PER_WORD, 0);
            p += 1;
        }
        if slot == SPELLED {
            let key = self.tape.intern(key);
            self.tape.words.insert(p, key);
            p += 1;
        }
        self.tape.words.insert(p, payload);
        for j in (i..n).rev() {
            let meta = self.meta(metas, j);
            self.put_meta(metas, j + 1, meta);
        }
        self.put_meta(metas, i, tag | slot << 3);
        self.tape.words[self.tape.at] += 1;
    }

    /// Field `i`'s meta, the metas starting at word `metas`.
    fn meta(&self, metas: usize, i: usize) -> u64 {
        meta(self.tape.words[metas + i / METAS_PER_WORD], i)
    }

    fn put_meta(&mut self, metas: usize, i: usize, meta: u64) {
        let (at, shift) = (metas + i / METAS_PER_WORD, 7 * (i % METAS_PER_WORD));
        let word = &mut self.tape.words[at];
        *word = *word & !(0x7F << shift) | meta << shift;
    }

    /// Append the event as one schema-v1 JSONL line (no trailing newline).
    pub(crate) fn write_json(&self, out: &mut String) {
        render_line(out, &mut self.record(), self.seq, self.ts_us, self.wall_us, None);
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
        let record = self.record();
        let mut out = format!("{} {}/{}", record.level.as_str(), record.span, record.name);
        for (k, v) in record.filter(|(k, _)| !k.ends_with("_us")) {
            out.push(' ');
            out.push_str(k);
            out.push('=');
            v.write_json(&mut out);
        }
        out
    }
}

/// Meta `i` of its group's word.
fn meta(word: u64, i: usize) -> u64 {
    word >> (7 * (i % METAS_PER_WORD)) & 0x7F
}

/// Where a record's words are read from: a tape's [`Cursor`], or a
/// [`crate::tape`] copy in progress.
pub(crate) trait Words<'a> {
    /// Word `at`.
    fn word(&self, at: usize) -> u64;

    /// The text string word `at` stands for. A record's string words are
    /// read once each, in order.
    fn text(&mut self, at: usize) -> &'a str;
}

impl<'a, W: Words<'a>> Words<'a> for &mut W {
    fn word(&self, at: usize) -> u64 {
        (**self).word(at)
    }

    fn text(&mut self, at: usize) -> &'a str {
        (**self).text(at)
    }
}

/// One record, its header read; iterating it yields its fields in key
/// order, and [`Record::at`] is then where the next record starts.
pub(crate) struct Record<'a, W> {
    pub(crate) words: W,
    pub(crate) level: Level,
    pub(crate) span: &'a str,
    pub(crate) name: &'a str,
    keys: &'static [&'static str],
    /// Fields, and fields read.
    n: usize,
    read: usize,
    /// The first meta word.
    metas: usize,
    /// The next field's first word.
    pub(crate) at: usize,
}

impl<'a, W: Words<'a>> Record<'a, W> {
    /// The record whose header is word `at`.
    pub(crate) fn read(mut words: W, at: usize) -> Self {
        let head = words.word(at);
        let entry = ENTRIES.get((head >> 48) as usize);
        let (span, name, metas) = match entry {
            Some(e) => (e.span(), e.name(), at + 1),
            None => (words.text(at + 1), words.text(at + 2), at + 3),
        };
        let n = head as u32 as usize;
        let level = LEVELS[(head >> 32 & 3) as usize];
        let keys = entry.map_or(&[][..], |e| e.keys());
        let at = metas + n.div_ceil(METAS_PER_WORD);
        Self { words, level, span, name, keys, n, read: 0, metas, at }
    }
}

impl<'a, W: Words<'a>> Iterator for Record<'a, W> {
    type Item = (&'a str, Value<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.read == self.n {
            return None;
        }
        let meta = meta(self.words.word(self.metas + self.read / METAS_PER_WORD), self.read);
        self.read += 1;
        // No entry declares a 16th key, so a spelled slot finds none.
        let key = match self.keys.get((meta >> 3) as usize) {
            Some(key) => key,
            None => {
                self.at += 1;
                self.words.text(self.at - 1)
            }
        };
        self.at += 1;
        let payload = self.words.word(self.at - 1);
        let value = match meta & 7 {
            BOOL => Value::Bool(payload != 0),
            I64 => Value::I64(payload as i64),
            U64 => Value::U64(payload),
            F64 => Value::F64(f64::from_bits(payload)),
            _ => Value::Str(Cow::Borrowed(self.words.text(self.at - 1))),
        };
        Some((key, value))
    }
}

/// Append `record` as one schema-v1 line (no trailing newline), the one
/// render of a record. With a `label` the line is a capture's: timing
/// fields (`*_us`) and the record's own `tenant` are dropped and `tenant:
/// label` written in its sorted place.
pub(crate) fn render_line<'a>(
    out: &mut String,
    record: &mut Record<'a, impl Words<'a>>,
    seq: u64,
    ts_us: u64,
    wall_us: Option<u64>,
    label: Option<&str>,
) {
    out.push_str("{\"v\":");
    write_u64(out, crate::schema::SCHEMA_VERSION);
    out.push_str(",\"seq\":");
    write_u64(out, seq);
    out.push_str(",\"ts_us\":");
    write_u64(out, ts_us);
    out.push_str(",\"level\":\"");
    out.push_str(record.level.as_str());
    out.push_str("\",\"span\":\"");
    escape_into(out, record.span);
    out.push_str("\",\"event\":\"");
    escape_into(out, record.name);
    out.push_str("\",\"fields\":{");
    let (mut first, mut pending) = (true, label);
    for (key, value) in record {
        if label.is_some() && (key.ends_with("_us") || key == LABEL_KEY) {
            continue;
        }
        if let Some(label) = pending.filter(|_| key > LABEL_KEY) {
            write_member(out, &mut first, LABEL_KEY, Value::Str(Cow::Borrowed(label)));
            pending = None;
        }
        write_member(out, &mut first, key, value);
    }
    if let Some(label) = pending {
        write_member(out, &mut first, LABEL_KEY, Value::Str(Cow::Borrowed(label)));
    }
    out.push('}');
    if let Some(w) = wall_us {
        out.push_str(",\"wall_us\":");
        write_u64(out, w);
    }
    out.push('}');
}

/// Append one member of a line's `fields` object.
fn write_member(out: &mut String, first: &mut bool, key: &str, value: Value<'_>) {
    out.push_str(if std::mem::take(first) { "\"" } else { ",\"" });
    escape_into(out, key);
    out.push_str("\":");
    value.write_json(out);
}

/// The test-only oracle the tape's differential shares.
#[cfg(test)]
pub(crate) use tests::{reference_json, Model};

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
        assert_eq!(e.record().count(), 2);
        assert_eq!(e.get("k"), Some(Value::U64(3)));
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
        assert_eq!(a.content_line(), "debug rolling/window index=0");
        assert_ne!(a.to_json(), b.to_json());
    }

    /// A `sim/step` listed in catalogue order is its header, one meta word
    /// and five payloads, in the room `Event::of` reserved.
    #[test]
    fn a_sim_step_is_seven_words() {
        let mut e = Event::of(catalog::SIM_STEP);
        e.field("nodes", 3u32)
            .field("step", 9u64)
            .field("utilization", 41.5)
            .field("violation", false)
            .field("workload", 124.5);
        assert_eq!((e.tape.words.len(), e.tape.words.capacity()), (7, 7));
        assert!(e.tape.text.is_empty());
        assert_eq!(e.get("utilization"), Some(Value::F64(41.5)));
    }

    /// An event as a test built it, kept apart from the record: what its
    /// line must show.
    pub(crate) struct Model {
        pub(crate) seq: u64,
        pub(crate) ts_us: u64,
        pub(crate) level: Level,
        pub(crate) span: &'static str,
        pub(crate) name: &'static str,
        pub(crate) fields: BTreeMap<String, Value<'static>>,
        pub(crate) wall_us: Option<u64>,
    }

    /// `to_json` as it was before `write_json`, over the field map events
    /// had before their records: a `format!` per member, an `escape_str`
    /// per string, a `String` per value. The oracle every render is held
    /// to.
    pub(crate) fn reference_json(m: &Model) -> String {
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
            m.fields.iter().map(|(k, v)| format!("\"{}\":{}", escape_str(k), value(v))).collect();
        format!(
            "{{\"v\":1,\"seq\":{},\"ts_us\":{},\"level\":\"{}\",\
             \"span\":\"{}\",\"event\":\"{}\",\"fields\":{{{}}}{}}}",
            m.seq,
            m.ts_us,
            m.level.as_str(),
            escape_str(m.span),
            escape_str(m.name),
            fields.join(","),
            m.wall_us.map_or(String::new(), |w| format!(",\"wall_us\":{w}")),
        )
    }

    /// A key made at run time, for the life of the test binary.
    fn computed(key: String) -> &'static str {
        Box::leak(key.into_boxed_str())
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
            let (span, name) = (*text, texts[(i + 1) % texts.len()]);
            let mut e = Event::new(levels[i % 4], span, name);
            let mut fields = BTreeMap::new();
            let mut set = |e: &mut Event, key: &'static str, v: Value<'static>| {
                e.field(key, v.clone());
                fields.insert(key.to_string(), v);
            };
            for (j, x) in floats.iter().enumerate().skip(i % 3) {
                set(&mut e, computed(format!("f{j}{text}")), Value::F64(*x));
            }
            set(&mut e, "flag", Value::Bool(i % 2 == 0));
            set(&mut e, "neg", Value::I64(-(i as i64) - 1));
            set(&mut e, "n", Value::from(i));
            set(&mut e, "zero", Value::U64(0));
            set(&mut e, "umax", Value::U64(u64::MAX));
            set(&mut e, "imin", Value::I64(i64::MIN));
            set(&mut e, text, Value::from(*text));
            e.seq = i as u64;
            e.ts_us = [u64::MAX, 0, 10, 99, 1_000_000, u64::MAX - 1][i];
            e.wall_us = (i % 2 == 0).then_some(i as u64 * 1000);
            let (seq, ts_us, level, wall_us) = (e.seq, e.ts_us, e.level(), e.wall_us);
            let model = Model { seq, ts_us, level, span, name, fields, wall_us };
            let expected = reference_json(&model);
            assert_eq!(e.to_json(), expected);
            crate::schema::validate_line(&e.to_json()).expect("schema-valid line");
            let before = line.len();
            e.write_json(&mut line);
            assert_eq!(&line[before..], expected);
        }
        assert!(line.starts_with("kept|{\"v\":1,"));
    }

    /// A record against the `BTreeMap<String, Value>` its fields were
    /// before, under random writes (declared keys out of order and
    /// repeated, spelled ones, computed ones, on a catalogued event and an
    /// escape-hatch one; literal and computed strings, so a computed one
    /// lands ahead of, over and behind others) and lookups: same members
    /// in the same order, same line.
    #[test]
    fn a_record_agrees_with_the_btreemap_it_replaced() {
        const KEYS: [&str; 12] = [
            "step", "tau", "a", "", "wall_us", "ab", "B", "µ", "tenant", "nodes", "workload",
            "violation",
        ];
        let computed: Vec<[&'static str; 3]> =
            KEYS.iter().map(|k| [0, 1, 2].map(|i| computed(format!("{k}{i}")))).collect();
        forall("record_vs_btreemap", 400, |g| {
            let mut e = if g.usize_in(0, 2) == 0 {
                Event::new(Level::Debug, "sim", "step")
            } else {
                Event::of(catalog::SIM_STEP)
            };
            let mut oracle: BTreeMap<String, Value<'static>> = BTreeMap::new();
            for op in 0..g.usize_in(0, 24) {
                let at = g.usize_in(0, KEYS.len());
                let value = match g.usize_in(0, 6) {
                    0 => Value::Bool(op % 2 == 0),
                    1 => Value::I64(g.u64() as i64),
                    2 => Value::U64(g.u64() >> g.usize_in(0, 64)),
                    3 => Value::F64(g.f64_in(-1e6, 1e6)),
                    4 => Value::from(["aggressive", "q\"\n", ""][op % 3]),
                    _ => Value::from(["c", "µ\"", ""][op % 3].repeat(g.usize_in(0, 4))),
                };
                let key = match g.usize_in(0, 8) {
                    1..=2 => computed[at][op % 3],
                    _ => KEYS[at],
                };
                e.field(key, value.clone());
                oracle.insert(key.to_string(), value);
                prop_assert_eq!(e.get(KEYS[at]), oracle.get(KEYS[at]).cloned());
                prop_assert_eq!(e.get(key), oracle.get(key).cloned());
            }
            let fields: Vec<(&str, Value<'_>)> = e.record().collect();
            let expected = oracle.iter().map(|(k, v)| (k.as_str(), v));
            prop_assert!(fields.iter().map(|(k, v)| (*k, v)).eq(expected));
            let (span, name, level) = ("sim", "step", Level::Debug);
            let fields = oracle;
            let model = Model { seq: 0, ts_us: 0, level, span, name, fields, wall_us: None };
            prop_assert_eq!(e.to_json(), reference_json(&model));
            Ok(())
        });
    }

    #[test]
    fn nonfinite_floats_serialize_as_strings() {
        let mut e = Event::new(Level::Info, "s", "n");
        e.field("a", f64::NAN).field("b", f64::INFINITY).field("c", f64::NEG_INFINITY);
        e.field("d", 3.0);
        let fields = "\"fields\":{\"a\":\"NaN\",\"b\":\"inf\",\"c\":\"-inf\",\"d\":3.0}";
        assert!(e.to_json().contains(fields), "{}", e.to_json());
    }
}
