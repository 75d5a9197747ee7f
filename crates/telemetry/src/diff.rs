//! Structural diff of two recorded traces — the determinism-debugging
//! half of `rpas-cli obs`. Compares *content* (level, span, event,
//! non-timing fields), never wall-clock members (`ts_us`, `wall_us`,
//! `*_us` fields), so two runs of the same seeded computation diff
//! clean even though their timings differ.
//!
//! Two views, coarse to fine:
//! 1. event-count deltas per `span/event` — what appeared or vanished;
//! 2. a first-divergence pointer — the first line index where content
//!    differs, with both renderings, for bisecting nondeterminism.

use crate::query::render_json;
use rpas_obs::TraceLine;
use std::collections::BTreeMap;

/// Count of one `span/event` key in both traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountDelta {
    /// `span/event`.
    pub key: String,
    /// Occurrences in trace A.
    pub a: u64,
    /// Occurrences in trace B.
    pub b: u64,
}

/// First content mismatch between the two traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 0-based line index of the first differing content line.
    pub index: usize,
    /// Content line of trace A at that index (`None` if A ended).
    pub a: Option<String>,
    /// Content line of trace B at that index (`None` if B ended).
    pub b: Option<String>,
}

/// Result of [`diff_traces`].
#[derive(Debug, Clone)]
pub struct TraceDiff {
    /// Lines in trace A.
    pub a_lines: usize,
    /// Lines in trace B.
    pub b_lines: usize,
    /// `span/event` keys whose counts differ, sorted by key.
    pub count_deltas: Vec<CountDelta>,
    /// First content divergence in line order (`None` when identical).
    pub first_divergence: Option<Divergence>,
}

impl TraceDiff {
    /// Whether the traces have identical content (counts and
    /// line-by-line content both agree).
    pub fn is_identical(&self) -> bool {
        self.count_deltas.is_empty() && self.first_divergence.is_none()
    }

    /// Deterministic text rendering.
    pub fn render(&self) -> String {
        let mut out =
            format!("trace diff: {} line(s) in A, {} in B\n", self.a_lines, self.b_lines);
        if self.is_identical() {
            out.push_str("divergence        : none (content-identical traces)\n");
            return out;
        }
        if self.count_deltas.is_empty() {
            out.push_str("event counts      : identical\n");
        } else {
            out.push_str(&format!("event count deltas ({}):\n", self.count_deltas.len()));
            for d in &self.count_deltas {
                out.push_str(&format!(
                    "  {:<40} A={} B={} ({:+})\n",
                    d.key,
                    d.a,
                    d.b,
                    d.b as i64 - d.a as i64
                ));
            }
        }
        match &self.first_divergence {
            None => out.push_str("line content      : identical (ordering and counts differ)\n"),
            Some(d) => {
                out.push_str(&format!("first divergence  : line {}\n", d.index));
                out.push_str(&format!("  A: {}\n", d.a.as_deref().unwrap_or("(end of trace)")));
                out.push_str(&format!("  B: {}\n", d.b.as_deref().unwrap_or("(end of trace)")));
            }
        }
        out
    }
}

/// Deterministic content rendering of one line: severity, `span/event`,
/// and all non-timing fields (keys ending `_us` are timing by the
/// schema contract; `seq`/`ts_us`/`wall_us` are never compared).
pub(crate) fn content_line(line: &TraceLine) -> String {
    let mut out = format!("{} {}/{}", line.level.as_str(), line.span, line.event);
    for (k, v) in &line.fields {
        if k.ends_with("_us") {
            continue;
        }
        out.push_str(&format!(" {k}={}", render_json(v)));
    }
    out
}

/// Structural diff of two validated traces.
pub fn diff_traces(a: &[TraceLine], b: &[TraceLine]) -> TraceDiff {
    let mut counts: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (side, lines) in [(0, a), (1, b)] {
        for line in lines {
            let c = counts.entry(format!("{}/{}", line.span, line.event)).or_insert((0, 0));
            if side == 0 {
                c.0 += 1;
            } else {
                c.1 += 1;
            }
        }
    }

    let count_deltas = counts
        .into_iter()
        .filter(|(_, (ca, cb))| ca != cb)
        .map(|(key, (a, b))| CountDelta { key, a, b })
        .collect();

    let mut first_divergence = None;
    for i in 0..a.len().max(b.len()) {
        let la = a.get(i).map(content_line);
        let lb = b.get(i).map(content_line);
        if la != lb {
            first_divergence = Some(Divergence { index: i, a: la, b: lb });
            break;
        }
    }

    TraceDiff { a_lines: a.len(), b_lines: b.len(), count_deltas, first_divergence }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_obs::validate_line;

    fn parse(lines: &[&str]) -> Vec<TraceLine> {
        lines.iter().map(|l| validate_line(l).expect("fixture line validates")).collect()
    }

    #[test]
    fn identical_content_different_timings_diff_clean() {
        let a = parse(&[
            r#"{"v":1,"seq":0,"ts_us":100,"level":"info","span":"sim","event":"step","fields":{"step":1,"eval_us":55}}"#,
        ]);
        let b = parse(&[
            r#"{"v":1,"seq":0,"ts_us":999,"level":"info","span":"sim","event":"step","fields":{"step":1,"eval_us":77},"wall_us":3}"#,
        ]);
        let d = diff_traces(&a, &b);
        assert!(d.is_identical(), "{}", d.render());
        assert!(d.render().contains("divergence        : none"));
    }

    #[test]
    fn count_deltas_surface_missing_events() {
        let a = parse(&[
            r#"{"v":1,"seq":0,"ts_us":0,"level":"info","span":"sim","event":"step","fields":{}}"#,
            r#"{"v":1,"seq":1,"ts_us":0,"level":"warn","span":"resilience","event":"fallback","fields":{}}"#,
        ]);
        let b = parse(&[
            r#"{"v":1,"seq":0,"ts_us":0,"level":"info","span":"sim","event":"step","fields":{}}"#,
        ]);
        let d = diff_traces(&a, &b);
        assert_eq!(d.count_deltas.len(), 1);
        assert_eq!(d.count_deltas[0].key, "resilience/fallback");
        assert_eq!((d.count_deltas[0].a, d.count_deltas[0].b), (1, 0));
        let div = d.first_divergence.expect("B ends early");
        assert_eq!(div.index, 1);
        assert!(div.b.is_none());
    }

    #[test]
    fn first_divergence_points_at_field_change() {
        let a = parse(&[
            r#"{"v":1,"seq":0,"ts_us":0,"level":"info","span":"sim","event":"step","fields":{"nodes":4}}"#,
            r#"{"v":1,"seq":1,"ts_us":0,"level":"info","span":"sim","event":"step","fields":{"nodes":4}}"#,
        ]);
        let b = parse(&[
            r#"{"v":1,"seq":0,"ts_us":0,"level":"info","span":"sim","event":"step","fields":{"nodes":4}}"#,
            r#"{"v":1,"seq":1,"ts_us":0,"level":"info","span":"sim","event":"step","fields":{"nodes":5}}"#,
        ]);
        let d = diff_traces(&a, &b);
        let div = d.first_divergence.as_ref().expect("nodes changed");
        assert_eq!(div.index, 1);
        assert_eq!(div.a.as_deref(), Some("info sim/step nodes=4"));
        assert_eq!(div.b.as_deref(), Some("info sim/step nodes=5"));
        // Counts are identical — only content diverged.
        assert!(d.count_deltas.is_empty());
        assert!(!d.is_identical());
    }
}
