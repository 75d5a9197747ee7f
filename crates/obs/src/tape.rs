//! A [`Tape`]: events' records kept as a few `u64` words each (the
//! `event` module's format), their strings interned, rendered into
//! schema-v1 lines when asked. Every record is built on one: a capture's
//! tape keeps them, a handle's scratch tape holds one at a time for its
//! sinks to read, and an event of its own carries a tape of one.
//!
//! A record's computed strings are appended to the tape's one text
//! buffer in the order of its words and read back in that order. A
//! `sim/step` is 7 words.

use crate::event::{render_line, Record, Words};
use std::borrow::Cow;

/// A field's value on its way to its payload word: the word itself, or
/// a string to intern or append.
pub(crate) enum Payload {
    Word(u64),
    Text(Cow<'static, str>),
}

/// Records of words (module docs), all closed but perhaps the last: the
/// one being built. A capture's tape is labelled: every rendered line
/// carries `tenant: label` in its sorted place, in place of any `tenant`
/// field the event had, and no timing field.
#[derive(Debug, Clone, Default)]
#[repr(C)] // what every emit touches first (see `sink::Inner`)
pub(crate) struct Tape {
    pub(crate) words: Vec<u64>,
    pub(crate) text: String,
    /// Where the closed records end: the open record's header word and
    /// its first text byte.
    pub(crate) at: usize,
    pub(crate) byte: usize,
    /// Closed records.
    events: usize,
    statics: Vec<&'static str>,
    label: String,
}

impl Tape {
    /// An empty tape whose lines carry `tenant: label`.
    pub(crate) fn labelled(label: String) -> Self {
        Self { label, ..Self::default() }
    }

    /// Closed records on the tape.
    pub(crate) fn len(&self) -> usize {
        self.events
    }

    /// Drop the open record, if any.
    #[inline]
    pub(crate) fn drop_open(&mut self) {
        self.words.truncate(self.at);
        self.text.truncate(self.byte);
    }

    /// Keep the open record; the next opens after it.
    #[inline]
    pub(crate) fn close(&mut self) {
        self.events += 1;
        (self.at, self.byte) = (self.words.len(), self.text.len());
    }

    /// Drop every record, keeping the room they took.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.words.clear();
        self.statics.clear();
        self.text.clear();
        (self.events, self.at, self.byte) = (0, 0, 0);
    }

    /// The string word of a literal: its index among the interned ones,
    /// found by address (a literal the compiler placed twice may take two
    /// slots).
    pub(crate) fn intern(&mut self, s: &'static str) -> u64 {
        (self.slot(s, 0) as u64) << 1
    }

    /// The index of literal `s` among the interned ones, interned if new,
    /// trying index `hint` before the scan.
    fn slot(&mut self, s: &'static str, hint: usize) -> usize {
        if self.statics.get(hint).is_some_and(|t| std::ptr::eq(*t, s)) {
            return hint;
        }
        match self.statics.iter().position(|t| std::ptr::eq(*t, s)) {
            Some(at) => at,
            None => {
                self.statics.push(s);
                self.statics.len() - 1
            }
        }
    }

    /// The word of `payload`. Its text, if computed, replaces the `gone`
    /// bytes at `byte` (the open record's text is the tape's last).
    #[inline(always)]
    pub(crate) fn encode(&mut self, payload: Payload, byte: usize, gone: usize) -> u64 {
        match payload {
            Payload::Word(word) if gone == 0 => word,
            payload => self.encode_text(payload, byte, gone),
        }
    }

    /// [`Tape::encode`] of a string, or of a word over a computed string.
    fn encode_text(&mut self, payload: Payload, byte: usize, gone: usize) -> u64 {
        let (word, text) = match payload {
            Payload::Word(word) => (word, Cow::Borrowed("")),
            Payload::Text(Cow::Borrowed(s)) => (self.intern(s), Cow::Borrowed("")),
            Payload::Text(text) => ((text.len() as u64) << 1 | 1, text),
        };
        if gone > 0 || !text.is_empty() {
            self.text.replace_range(byte..byte + gone, &text);
        }
        word
    }

    /// The record whose header is word `at` and whose text starts at
    /// byte `byte`.
    pub(crate) fn record(&self, at: usize, byte: usize) -> Record<'_, Cursor<'_>> {
        Record::read(self.cursor(byte), at)
    }

    /// The tape read from text byte `byte` on.
    pub(crate) fn cursor(&self, byte: usize) -> Cursor<'_> {
        Cursor { words: &self.words, statics: &self.statics, text: &self.text, byte }
    }

    /// Open a copy of the record `from` reads at word `at`, after this
    /// tape's closed records: its words copied, each string word interned
    /// or its text appended. Returns where the next record starts there.
    pub(crate) fn copy_record(&mut self, from: Cursor<'_>, at: usize) -> (usize, usize) {
        self.drop_open();
        let words = from.words;
        let mut record = Record::read(Copying { from, to: self, copied: at, next_slot: 0 }, at);
        for _ in &mut record {}
        let end = record.at;
        let Copying { from, to, copied, .. } = record.words;
        to.words.extend_from_slice(&words[copied..end]);
        (end, from.byte)
    }

    /// Open a copy of `src`'s open record.
    pub(crate) fn copy_open(&mut self, src: &Tape) {
        self.copy_record(src.cursor(src.byte), src.at);
    }

    /// Move every closed record into `lines` as its labelled line,
    /// numbered by its position there, `ts_us` 0 and no `wall_us`, each
    /// allocated at its exact size; the tape is left empty (its label
    /// kept).
    pub(crate) fn append_lines(&mut self, lines: &mut Vec<String>) {
        let label = std::mem::take(&mut self.label);
        let taken = std::mem::replace(self, Self::labelled(label));
        let mut cursor = taken.cursor(0);
        lines.reserve(taken.events);
        let (mut line, mut at) = (String::new(), 0);
        for _ in 0..taken.events {
            line.clear();
            let mut record = Record::read(&mut cursor, at);
            render_line(&mut line, &mut record, lines.len() as u64, 0, None, Some(&self.label));
            at = record.at;
            lines.push(line.as_str().to_owned());
        }
    }
}

/// A tape read from a record on: its words, its literals, its text and
/// the next byte of it.
pub(crate) struct Cursor<'a> {
    words: &'a [u64],
    statics: &'a [&'static str],
    text: &'a str,
    pub(crate) byte: usize,
}

impl<'a> Words<'a> for Cursor<'a> {
    fn word(&self, at: usize) -> u64 {
        self.words[at]
    }

    fn text(&mut self, at: usize) -> &'a str {
        let word = self.words[at];
        let n = (word >> 1) as usize;
        if word & 1 == 0 {
            return self.statics[n];
        }
        self.byte += n;
        &self.text[self.byte - n..self.byte]
    }
}

/// A record read from one tape and copied onto another as it is read:
/// the words up to each string word as they are, the string word
/// interned or its text appended.
struct Copying<'a, 't> {
    from: Cursor<'a>,
    to: &'t mut Tape,
    /// The next word of `from` not yet copied.
    copied: usize,
    /// Where `to` holds the literal after the last one copied, if the
    /// record is like one `to` has seen: a sink that copies one kind of
    /// event finds every literal here, without a scan.
    next_slot: usize,
}

impl<'a> Words<'a> for Copying<'a, '_> {
    fn word(&self, at: usize) -> u64 {
        self.from.word(at)
    }

    fn text(&mut self, at: usize) -> &'a str {
        let (word, words) = (self.from.words[at], self.from.words);
        let text = self.from.text(at);
        self.to.words.extend_from_slice(&words[self.copied..at]);
        let word = if word & 1 == 0 {
            let slot = self.to.slot(self.from.statics[(word >> 1) as usize], self.next_slot);
            self.next_slot = slot + 1;
            (slot as u64) << 1
        } else {
            self.to.text.push_str(text);
            word
        };
        self.to.words.push(word);
        self.copied = at + 1;
        text
    }
}

#[cfg(test)]
mod tests {
    use crate::catalog;
    use crate::event::{reference_json, Event, Head, Level, Model, Value};
    use crate::{MemorySink, Obs};
    use rpas_tsmath::propcheck::{forall, Gen};
    use rpas_tsmath::prop_assert_eq;

    /// The rule a fleet capture renders its events by, applied to what
    /// each event was built from: numbered by position, `ts_us` 0, no
    /// `wall_us`, `*_us` fields and the event's own `tenant` dropped and
    /// the label in its sorted place.
    fn reference_lines<'m>(
        models: impl IntoIterator<Item = &'m Model>,
        label: &str,
        first_seq: usize,
    ) -> Vec<String> {
        models
            .into_iter()
            .zip(first_seq..)
            .map(|(m, seq)| {
                let mut fields: std::collections::BTreeMap<String, Value<'static>> = m
                    .fields
                    .iter()
                    .filter(|(k, _)| !k.ends_with("_us") && *k != "tenant")
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                fields.insert("tenant".to_string(), Value::from(label.to_string()));
                let (level, span, name) = (m.level, m.span, m.name);
                let seq = seq as u64;
                reference_json(&Model { seq, ts_us: 0, level, span, name, fields, wall_us: None })
            })
            .collect()
    }

    /// Keys no catalogue entry declares, the label's and timing ones
    /// among them, spelled to need escaping, and sorting on both sides of
    /// `tenant`.
    const ODD_KEYS: [&str; 10] =
        ["", "a\"q", "tab\t", "tenant", "tenant0", "tenan", "wall_us", "x_us", "µ", "zz\u{1}"];
    const LITERALS: [&str; 5] = ["conservative", "", "q\"uo\\te", "\u{1f}ctl\n", "µ—漢🦀"];
    const LEVELS_DRAWN: [Level; 4] = [Level::Error, Level::Warn, Level::Info, Level::Debug];

    fn value(g: &mut Gen) -> Value<'static> {
        match g.usize_in(0, 12) {
            0 => Value::Bool(g.u64() & 1 == 0),
            1 => Value::I64(g.u64() as i64),
            2 => Value::I64([i64::MIN, i64::MAX, -1, 0][g.usize_in(0, 4)]),
            3 => Value::U64(g.u64() >> g.usize_in(0, 64)),
            4 => Value::U64([u64::MAX, 0][g.usize_in(0, 2)]),
            5 => Value::F64(f64::from_bits(g.u64())),
            6 => Value::F64(g.f64_in(-1e6, 1e6)),
            7 => Value::F64(
                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, 3.0, 1e300, 5e-324]
                    [g.usize_in(0, 8)],
            ),
            8 | 9 => Value::from(LITERALS[g.usize_in(0, LITERALS.len())]),
            _ => {
                let n = g.usize_in(0, 6);
                let s: String = (0..n)
                    .map(|_| ['a', '"', '\\', '\n', '\u{7}', 'é', '🦀', ' '][g.usize_in(0, 8)])
                    .collect();
                Value::from(s)
            }
        }
    }

    /// One event as the fleet may see it: how it is named, the writes
    /// that build it, and what it was built from.
    struct Drawn {
        head: Head,
        writes: Vec<(&'static str, Value<'static>)>,
        model: Model,
    }

    impl Drawn {
        fn build(&self, e: &mut Event) {
            for (key, value) in &self.writes {
                e.field(key, value.clone());
            }
            e.wall_us = self.model.wall_us;
        }
    }

    /// A catalogue entry's event with a random subset of its keys in
    /// random order, or an escape-hatch one (`Event::new`); sometimes
    /// with `wall_us`, keys no entry declares, a `tenant` field, or a key
    /// set twice. Most string values are computed, so one often goes in
    /// ahead of, or over, another already written.
    fn draw(g: &mut Gen) -> Drawn {
        let (head, declared) = if g.usize_in(0, 8) == 0 {
            let (span, name) = ([("x", "y"), ("s\"p", "µ"), ("sim", "step")])[g.usize_in(0, 3)];
            (Head::Named(LEVELS_DRAWN[g.usize_in(0, 4)], span, name), &[][..])
        } else {
            let entry = catalog::ALL[g.usize_in(0, catalog::ALL.len())];
            (Head::Entry(entry), entry.keys())
        };
        let (level, span, name) = match head {
            Head::Entry(entry) => (entry.level(), entry.span(), entry.name()),
            Head::Named(level, span, name) => (level, span, name),
        };
        // Every declared key a quarter of the time, so the widest entries
        // fill more than one word of metas.
        let every = g.u64() & 3 == 0;
        let mut keys: Vec<&'static str> =
            declared.iter().copied().filter(|_| every || g.u64() & 1 == 0).collect();
        for _ in 0..g.usize_in(0, 4) {
            if g.usize_in(0, 3) == 0 {
                keys.push(ODD_KEYS[g.usize_in(0, ODD_KEYS.len())]);
            }
        }
        for k in (1..keys.len()).rev() {
            keys.swap(k, g.usize_in(0, k + 1));
        }
        if !keys.is_empty() && g.usize_in(0, 4) == 0 {
            keys.push(keys[g.usize_in(0, keys.len())]);
        }
        let writes: Vec<_> = keys.into_iter().map(|key| (key, value(g))).collect();
        let fields = writes.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
        let wall_us = (g.usize_in(0, 4) == 0).then(|| g.u64());
        let (seq, ts_us) = (g.u64(), g.u64());
        Drawn { head, writes, model: Model { seq, ts_us, level, span, name, fields, wall_us } }
    }

    /// Each drawn event is built on its own tape (its line checked), then
    /// one of two ways: in place on `capture` by its own emit, or by a
    /// lit handle's emit, whose memory sink is shown the record and copies
    /// it. The capture and the memory sink must render the reference
    /// lines.
    fn check(cases: u32) {
        forall("tape_renders_the_reference_lines", cases, |g| {
            let label = ["t0042", "", "q\"é"][g.usize_in(0, 3)].to_string();
            let capture = Obs::capture(label.clone());
            let mem = MemorySink::new();
            let lit = Obs::with_sink(Box::new(mem.clone()));
            let drawn: Vec<Drawn> = (0..g.usize_in(0, 24)).map(|_| draw(g)).collect();
            let (mut kept, mut shown) = (Vec::new(), Vec::new());
            for d in &drawn {
                let mut e = Event::opened(&d.head);
                d.build(&mut e);
                (e.seq, e.ts_us) = (d.model.seq, d.model.ts_us);
                prop_assert_eq!(e.to_json(), reference_json(&d.model));
                let level = d.model.level;
                if g.u64() & 1 == 0 {
                    capture.emit_raw(level, || d.head, |e| d.build(e));
                    kept.push(&d.model);
                } else {
                    lit.emit_raw(level, || d.head, |e| d.build(e));
                    shown.push(&d.model);
                }
                prop_assert_eq!(capture.captured(), kept.len());
            }
            let mut lines = vec!["kept".to_string(); g.usize_in(0, 3)];
            let before = lines.len();
            capture.append_captured(&mut lines);
            prop_assert_eq!(&lines[before..], &reference_lines(kept, &label, before)[..]);
            prop_assert_eq!(capture.captured(), 0);
            let kept = mem.events();
            prop_assert_eq!(kept.len(), shown.len());
            for (mut e, m) in kept.into_iter().zip(shown) {
                (e.seq, e.ts_us) = (m.seq, m.ts_us);
                prop_assert_eq!(e.to_json(), reference_json(m));
            }
            Ok(())
        });
    }

    /// Every event's line and the tape's render against the old rule,
    /// computed apart from any record, over every entry, key subsets in
    /// random emit order, repeated keys, every value kind and edge,
    /// literal and computed strings that need escaping, and what the
    /// catalogue does not describe; built on an event's own tape, in
    /// place on a capture, and copied to a memory sink.
    #[test]
    fn tape_renders_the_reference_lines() {
        check(2_000);
    }

    /// The same property at 400 000 cases; trace bytes feed every fleet
    /// digest. About 70 s in release on a 2-vCPU host; `scripts/verify.sh`
    /// runs it.
    #[test]
    #[ignore = "400 000-case sweep; run in release"]
    fn sweep_tape_renders_the_reference_lines() {
        check(400_000);
    }

    /// A capture renders any number of times, one batch per call, and a
    /// render starts from an empty tape again.
    #[test]
    fn a_tape_is_emptied_by_each_render() {
        let capture = Obs::capture("t0001".into());
        let step = |t: u64| {
            capture.emit(catalog::SIM_STEP, |e| {
                e.field("step", t);
            });
        };
        step(1);
        let mut lines = Vec::new();
        capture.append_captured(&mut lines);
        capture.append_captured(&mut lines);
        step(1);
        capture.append_captured(&mut lines);
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("{\"v\":1,\"seq\":1,"), "{}", lines[1]);
        let fields = "\"fields\":{\"step\":1,\"tenant\":\"t0001\"}}";
        assert!(lines[1].ends_with(fields), "{}", lines[1]);
    }

    /// A `sim/step` record is 7 words: header, one meta word, five
    /// payloads. 1 000 of them captured hold at most 64 bytes each,
    /// counted by what the tape has allocated, not what it uses.
    #[test]
    fn a_captured_sim_step_holds_at_most_64_bytes() {
        let capture = Obs::capture("t0000".into());
        for t in 0..1_000u64 {
            capture.emit(catalog::SIM_STEP, |e| {
                e.field("nodes", 3u32)
                    .field("step", t)
                    .field("utilization", 41.5 + t as f64)
                    .field("violation", false)
                    .field("workload", 124.5);
            });
        }
        let (words, held) = capture
            .capture_tape(|tape| {
                let held = tape.words.capacity() * 8
                    + tape.statics.capacity() * 16
                    + tape.text.capacity();
                (tape.words.len(), held)
            })
            .expect("a capture");
        assert_eq!(words, 7 * 1_000);
        assert!(held <= 64 * 1_000, "1 000 sim/steps hold {held} bytes");
    }
}
