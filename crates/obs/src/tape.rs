//! A [`Tape`]: captured events kept as a few `u64` words each, rendered
//! into schema-v1 lines when asked.
//!
//! A record on the tape is the event's own record (`event` module docs),
//! word for word, except that a string word is a borrowed literal's index
//! among the tape's interned literals, or, with its low bit set, the byte
//! length of a computed string appended to the tape's one text buffer
//! (read back in order). A `sim/step` is 7 words.

use crate::event::{render_line, Cell, Event, Record, Words};
use std::borrow::Cow;

/// Captured events as compact records (module docs), labelled: every
/// rendered line carries `tenant: label` in its sorted place, in place
/// of any `tenant` field the event had, and no timing field. A fleet
/// tenant's capture is one (`rpas_core::Capture`).
pub struct Tape {
    words: Vec<u64>,
    statics: Vec<&'static str>,
    text: String,
    events: usize,
    label: String,
}

impl Tape {
    /// An empty tape whose lines carry `tenant: label`.
    pub fn new(label: String) -> Self {
        let (words, statics, text) = (Vec::new(), Vec::new(), String::new());
        Self { words, statics, text, events: 0, label }
    }

    /// Events on the tape.
    pub fn len(&self) -> usize {
        self.events
    }

    /// Whether the tape holds no event.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Append `event`'s record, its strings interned: a literal by
    /// address (a literal the compiler placed twice may take two slots),
    /// a computed string appended to the text buffer. The whole record is
    /// reserved at once, so a tape of equal records grows by doubling a
    /// multiple of their size.
    pub fn push(&mut self, event: &Event) {
        self.words.reserve(event.cells.len());
        for cell in &event.cells {
            let word = match cell {
                Cell::Word(word) => *word,
                Cell::Text(Cow::Borrowed(s)) => {
                    let at = match self.statics.iter().position(|t| std::ptr::eq(*t, *s)) {
                        Some(at) => at,
                        None => {
                            self.statics.push(s);
                            self.statics.len() - 1
                        }
                    };
                    (at as u64) << 1
                }
                Cell::Text(Cow::Owned(s)) => {
                    self.text.push_str(s);
                    (s.len() as u64) << 1 | 1
                }
            };
            self.words.push(word);
        }
        self.events += 1;
    }

    /// Move every recorded event into `lines` as its labelled line,
    /// numbered by its position there, `ts_us` 0 and no `wall_us`, each
    /// allocated at its exact size; the tape is left empty (its label
    /// kept).
    pub fn append_lines(&mut self, lines: &mut Vec<String>) {
        let words = std::mem::take(&mut self.words);
        let statics = std::mem::take(&mut self.statics);
        let text = std::mem::take(&mut self.text);
        let events = std::mem::take(&mut self.events);
        let mut taken = Taken { words: &words, statics: &statics, text: &text, byte: 0 };
        lines.reserve(events);
        let (mut line, mut at) = (String::new(), 0);
        for _ in 0..events {
            line.clear();
            let mut record = Record::read(&mut taken, at);
            render_line(&mut line, &mut record, lines.len() as u64, 0, None, Some(&self.label));
            at = record.at;
            lines.push(line.as_str().to_owned());
        }
    }
}

/// A taken tape's words, and the next byte of its text buffer.
struct Taken<'a> {
    words: &'a [u64],
    statics: &'a [&'static str],
    text: &'a str,
    byte: usize,
}

impl<'a> Words<'a> for Taken<'a> {
    fn word(&self, at: usize) -> u64 {
        self.words[at]
    }

    fn text(&mut self, at: usize) -> &'a str {
        let (word, text) = (self.words[at], self.text);
        let n = (word >> 1) as usize;
        if word & 1 == 0 {
            return self.statics[n];
        }
        self.byte += n;
        &text[self.byte - n..self.byte]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::event::{reference_json, Model};
    use crate::event::{Level, Value};
    use rpas_tsmath::propcheck::{forall, Gen};
    use rpas_tsmath::prop_assert_eq;

    /// The rule a fleet capture renders its events by, applied to what
    /// each event was built from: numbered by position, `ts_us` 0, no
    /// `wall_us`, `*_us` fields and the event's own `tenant` dropped and
    /// the label in its sorted place.
    fn reference_lines(models: &[Model], label: &str, first_seq: usize) -> Vec<String> {
        models
            .iter()
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

    /// One event as the fleet may see it, and what it was built from: a
    /// catalogue entry's with a random subset of its keys in random order,
    /// or an escape-hatch event; sometimes with `wall_us`, odd keys, a
    /// `tenant` field, or a key set twice.
    fn event(g: &mut Gen) -> (Event, Model) {
        let (mut e, level, span, name, declared) = if g.usize_in(0, 8) == 0 {
            let (span, name) = ([("x", "y"), ("s\"p", "µ"), ("sim", "step")])[g.usize_in(0, 3)];
            let level = LEVELS_DRAWN[g.usize_in(0, 4)];
            (Event::new(level, span, name), level, span, name, &[][..])
        } else {
            let entry = catalog::ALL[g.usize_in(0, catalog::ALL.len())];
            (Event::of(entry), entry.level(), entry.span(), entry.name(), entry.keys())
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
        let mut fields = std::collections::BTreeMap::new();
        for key in keys {
            let v = value(g);
            e.field(key, v.clone());
            fields.insert(key.to_string(), v);
        }
        if g.usize_in(0, 4) == 0 {
            e.wall_us = Some(g.u64());
        }
        e.seq = g.u64();
        e.ts_us = g.u64();
        let (seq, ts_us, wall_us) = (e.seq, e.ts_us, e.wall_us);
        (e, Model { seq, ts_us, level, span, name, fields, wall_us })
    }

    fn check(cases: u32) {
        forall("tape_renders_the_reference_lines", cases, |g| {
            let label = ["t0042", "", "q\"é"][g.usize_in(0, 3)].to_string();
            let mut tape = Tape::new(label.clone());
            let (events, models): (Vec<Event>, Vec<Model>) =
                (0..g.usize_in(0, 24)).map(|_| event(g)).unzip();
            for (i, (e, m)) in events.iter().zip(&models).enumerate() {
                prop_assert_eq!(e.to_json(), reference_json(m));
                tape.push(e);
                prop_assert_eq!(tape.len(), i + 1);
            }
            let mut lines = vec!["kept".to_string(); g.usize_in(0, 3)];
            let before = lines.len();
            tape.append_lines(&mut lines);
            prop_assert_eq!(&lines[before..], &reference_lines(&models, &label, before)[..]);
            prop_assert_eq!(tape.len(), 0);
            Ok(())
        });
    }

    /// Every event's line and the tape's render against the old rule,
    /// computed apart from any record, over every entry, key subsets in
    /// random emit order, repeated keys, every value kind and edge,
    /// literal and computed strings that need escaping, and what the
    /// catalogue does not describe.
    #[test]
    fn tape_renders_the_reference_lines() {
        check(2_000);
    }

    /// The same property at 400 000 cases; trace bytes feed every fleet
    /// digest. About 50 s in release on a 2-vCPU host; `scripts/verify.sh`
    /// runs it.
    #[test]
    #[ignore = "400 000-case sweep; run in release"]
    fn sweep_tape_renders_the_reference_lines() {
        check(400_000);
    }

    /// A tape renders any number of times, one batch per call, and a
    /// render starts from an empty tape again.
    #[test]
    fn a_tape_is_emptied_by_each_render() {
        let mut tape = Tape::new("t0001".into());
        let mut e = Event::of(catalog::SIM_STEP);
        e.field("step", 1u64);
        tape.push(&e);
        let mut lines = Vec::new();
        tape.append_lines(&mut lines);
        tape.append_lines(&mut lines);
        tape.push(&e);
        tape.append_lines(&mut lines);
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("{\"v\":1,\"seq\":1,"), "{}", lines[1]);
        let fields = "\"fields\":{\"step\":1,\"tenant\":\"t0001\"}}";
        assert!(lines[1].ends_with(fields), "{}", lines[1]);
    }

    /// A `sim/step` record is 7 words: header, one meta word, five
    /// payloads. 1 000 of them hold at most 64 bytes each, counted by what
    /// the tape has allocated, not what it uses.
    #[test]
    fn a_captured_sim_step_holds_at_most_64_bytes() {
        let mut tape = Tape::new("t0000".into());
        for t in 0..1_000u64 {
            let mut e = Event::of(catalog::SIM_STEP);
            e.field("nodes", 3u32)
                .field("step", t)
                .field("utilization", 41.5 + t as f64)
                .field("violation", false)
                .field("workload", 124.5);
            tape.push(&e);
        }
        assert_eq!(tape.words.len(), 7 * 1_000);
        let held = tape.words.capacity() * 8 + tape.statics.capacity() * 16 + tape.text.capacity();
        assert!(held <= 64 * 1_000, "1 000 sim/steps hold {held} bytes");
    }
}
