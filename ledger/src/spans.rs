//! The ledger's own span recorder (not `rpas-obs`, so the thing measured
//! is not the thing measuring). Spans live in a pre-reserved vector and
//! are written out once, at exit.

use crate::clock::now_ns;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span: a call into a layer (or the op enclosing them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-boundary name (`forecast`, `plan`, `tick`, ...).
    pub name: &'static str,
    /// Start, nanoseconds on the ledger clock.
    pub start_ns: u64,
    /// End, nanoseconds on the ledger clock.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// The op this span belongs to; spans of one op share it.
    pub op_id: u64,
}

/// Records spans while `on`; a pass-through otherwise, so the untraced
/// run executes the same op code and pays one branch per boundary.
pub struct Tracer {
    /// Whether spans are being recorded.
    pub on: bool,
    spans: Vec<Span>,
    /// Innermost open span.
    current: u32,
    op_id: u64,
}

impl Tracer {
    /// A tracer with room for `capacity` spans; starts switched off.
    pub fn new(capacity: usize) -> Self {
        Self { on: false, spans: Vec::with_capacity(capacity), current: NO_PARENT, op_id: 0 }
    }

    /// Start the next op: later spans carry a fresh `op_id`.
    pub fn next_op(&mut self) {
        self.op_id += 1;
    }

    /// Run `f` inside a span called `name` (a child of the innermost
    /// open span). `f` gets the tracer back to open child spans.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.current;
        self.spans.push(Span { name, start_ns: now_ns(), end_ns: 0, parent, op_id: self.op_id });
        self.current = idx;
        let out = f(self);
        self.spans[idx as usize].end_ns = now_ns();
        self.current = parent;
        out
    }

    /// Forget every span after the first `len` (none may be open).
    pub fn truncate(&mut self, len: usize) {
        debug_assert_eq!(self.current, NO_PARENT, "truncate inside an open span");
        self.spans.truncate(len);
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op_id
            );
        }
        out
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self time: duration minus the part of the interval that
    /// direct children cover.
    pub self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Totals per span name, and the summed duration of root spans (the
/// whole that the self times add up to).
///
/// Children may overlap one another (or, from a buggy caller, overrun
/// the parent): self time subtracts the *union* of the child intervals
/// clipped to the parent, so covered time is never subtracted twice.
pub fn self_times(spans: &[Span]) -> (BTreeMap<&'static str, NameTotals>, u64) {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    let mut root_ns = 0;
    for (s, kids) in spans.iter().zip(children) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let t = by_name.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered(kids, s.start_ns, s.end_ns);
        if s.parent == NO_PARENT {
            root_ns += dur;
        }
    }
    (by_name, root_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, op_id: 0 }
    }

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        let spans = vec![
            span("op", 0, 100, NO_PARENT),
            span("forecast", 10, 60, 0),
            span("plan", 50, 80, 0),  // overlaps forecast by 10
            span("gru", 20, 30, 1),   // grandchild: only forecast's self time shrinks
            span("late", 90, 120, 0), // overruns the parent: clipped to 10
        ];
        let (t, root) = self_times(&spans);
        assert_eq!(root, 100);
        // Children cover [10,80) ∪ [90,100) = 80 of the op's 100.
        assert_eq!(t["op"], NameTotals { count: 1, total_ns: 100, self_ns: 20 });
        assert_eq!(t["forecast"], NameTotals { count: 1, total_ns: 50, self_ns: 40 });
        assert_eq!(t["plan"].self_ns, 30);
        assert_eq!(t["gru"].self_ns, 10);
    }

    #[test]
    fn self_times_of_disjoint_children_sum_to_the_root() {
        let spans = vec![
            span("op", 0, 50, NO_PARENT),
            span("a", 0, 20, 0),
            span("b", 20, 45, 0),
            span("op", 60, 100, NO_PARENT),
            span("a", 65, 100, 3),
        ];
        let (t, root) = self_times(&spans);
        assert_eq!(root, 90);
        assert_eq!(t.values().map(|n| n.self_ns).sum::<u64>(), root);
        assert_eq!(t["a"].count, 2);
        assert_eq!(t["op"].self_ns, 5 + 5);
    }

    #[test]
    fn tracer_records_parents_and_is_a_pass_through_when_off() {
        let mut tr = Tracer::new(8);
        assert_eq!(tr.scope("op", |tr| tr.scope("child", |_| 7)), 7);
        assert!(tr.spans().is_empty());
        tr.on = true;
        tr.next_op();
        tr.scope("op", |tr| {
            tr.scope("a", |_| ());
            tr.scope("b", |tr| tr.scope("c", |_| ()));
        });
        let names: Vec<_> = tr.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, vec![("op", NO_PARENT), ("a", 0), ("b", 0), ("c", 2)]);
        assert!(tr.spans().iter().all(|s| s.op_id == 1 && s.end_ns >= s.start_ns));
        let lines = tr.to_jsonl();
        assert_eq!(lines.lines().count(), 4);
        for line in lines.lines() {
            rpas_obs::json::parse(line).expect("span line is JSON");
        }
    }
}
