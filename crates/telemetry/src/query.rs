//! Offline query engine over recorded schema-v1 traces: filter lines,
//! group them, aggregate a value per group. Powers `rpas-cli obs query`.
//!
//! Everything operates on already-validated [`TraceLine`]s and renders
//! through `BTreeMap`s, so output order is canonical regardless of input
//! interleaving.

use rpas_obs::json::{f64_string, write_f64};
use rpas_obs::{catalog, Json, Level, TraceLine};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Conjunctive line filter; `None` members match everything.
#[derive(Debug, Clone, Default)]
pub struct QueryFilter {
    /// Exact span match.
    pub span: Option<String>,
    /// Exact event-name match.
    pub event: Option<String>,
    /// Exact severity match.
    pub level: Option<Level>,
    /// Field equality constraints, compared on the canonical string
    /// rendering (`tenant=t0003`, `metric=sim.step`, ...).
    pub field_equals: Vec<(String, String)>,
}

impl QueryFilter {
    /// Reject a `span` + `event` pair this build's catalogue does not
    /// declare — a typo would otherwise match nothing and look like an
    /// empty result.
    ///
    /// # Errors
    /// Names the events the span does have (or the known spans).
    pub fn check_catalog(&self) -> Result<(), String> {
        let (Some(span), Some(event)) = (&self.span, &self.event) else { return Ok(()) };
        if catalog::find(span, event).is_some() {
            return Ok(());
        }
        let known: Vec<&str> =
            catalog::ALL.iter().filter(|n| n.span() == span).map(|n| n.name()).collect();
        if known.is_empty() {
            let mut spans: Vec<&str> = catalog::ALL.iter().map(|n| n.span()).collect();
            spans.dedup();
            return Err(format!("unknown span {span:?} (known spans: {})", spans.join(", ")));
        }
        Err(format!("span {span:?} has no event {event:?} (its events: {})", known.join(", ")))
    }

    /// Whether `line` passes every constraint.
    pub(crate) fn matches(&self, line: &TraceLine) -> bool {
        if let Some(s) = &self.span {
            if &line.span != s {
                return false;
            }
        }
        if let Some(e) = &self.event {
            if &line.event != e {
                return false;
            }
        }
        if let Some(l) = self.level {
            if line.level != l {
                return false;
            }
        }
        self.field_equals
            .iter()
            .all(|(k, v)| line.fields.get(k).map(render_json).as_deref() == Some(v.as_str()))
    }
}

/// Grouping key for matched lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupBy {
    /// One group for everything.
    All,
    /// Group by span.
    Span,
    /// Group by `span/event`.
    SpanEvent,
    /// Group by severity.
    Level,
    /// Group by a field's rendered value (`(none)` when absent).
    Field(String),
}

impl GroupBy {
    /// Parse a CLI spelling (`all|span|event|level|field:<name>`;
    /// `tenant` is shorthand for `field:tenant`).
    pub fn parse(s: &str) -> Result<GroupBy, String> {
        Ok(match s {
            "all" => GroupBy::All,
            "span" => GroupBy::Span,
            "event" | "span-event" => GroupBy::SpanEvent,
            "level" => GroupBy::Level,
            "tenant" => GroupBy::Field("tenant".to_string()),
            other => match other.strip_prefix("field:") {
                Some(f) if !f.is_empty() => GroupBy::Field(f.to_string()),
                _ => return Err(format!("unknown group key {other:?} (all|span|event|level|tenant|field:<name>)")),
            },
        })
    }

    fn key(&self, line: &TraceLine) -> String {
        match self {
            GroupBy::All => "all".to_string(),
            GroupBy::Span => line.span.clone(),
            GroupBy::SpanEvent => format!("{}/{}", line.span, line.event),
            GroupBy::Level => line.level.as_str().to_string(),
            GroupBy::Field(f) => {
                line.fields.get(f).map(render_json).unwrap_or_else(|| "(none)".to_string())
            }
        }
    }
}

/// Per-group aggregate.
#[derive(Debug, Clone, PartialEq)]
pub enum Aggregate {
    /// Matched-line count.
    Count,
    /// Sum of a numeric field (lines without it are skipped).
    Sum(String),
    /// Mean of a numeric field.
    Mean(String),
    /// Minimum of a numeric field.
    Min(String),
    /// Maximum of a numeric field.
    Max(String),
}

impl Aggregate {
    /// Parse a CLI spelling (`count|sum:<field>|mean:<field>|min:<field>|max:<field>`).
    pub fn parse(s: &str) -> Result<Aggregate, String> {
        if s == "count" {
            return Ok(Aggregate::Count);
        }
        for (prefix, make) in [
            ("sum:", Aggregate::Sum as fn(String) -> Aggregate),
            ("mean:", Aggregate::Mean),
            ("min:", Aggregate::Min),
            ("max:", Aggregate::Max),
        ] {
            if let Some(f) = s.strip_prefix(prefix) {
                if f.is_empty() {
                    return Err(format!("aggregate {s:?} is missing a field name"));
                }
                return Ok(make(f.to_string()));
            }
        }
        Err(format!("unknown aggregate {s:?} (count|sum:<f>|mean:<f>|min:<f>|max:<f>)"))
    }
}

/// One aggregated group row.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRow {
    /// Group key.
    pub key: String,
    /// Aggregated value.
    pub value: f64,
}

/// Result of [`run_query`].
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Rows in canonical (sorted-by-key) order.
    pub rows: Vec<QueryRow>,
    /// Lines that passed the filter.
    pub matched: usize,
    /// Lines examined.
    pub scanned: usize,
}

impl QueryResult {
    /// Deterministic text table.
    pub fn render(&self) -> String {
        let width =
            self.rows.iter().map(|r| r.key.len()).max().unwrap_or(0).max("group".len());
        let mut out = format!("{:<width$}  {:>14}\n", "group", "value");
        let mut value = String::new();
        for r in &self.rows {
            value.clear();
            write_f64(&mut value, r.value);
            let _ = writeln!(out, "{:<width$}  {value:>14}", r.key);
        }
        let _ = writeln!(out, "matched {} of {} line(s)", self.matched, self.scanned);
        out
    }
}

/// Filter, group, and aggregate `lines`.
pub fn run_query(
    lines: &[TraceLine],
    filter: &QueryFilter,
    group: &GroupBy,
    agg: &Aggregate,
) -> QueryResult {
    // (count, sum, min, max) per group; which one renders depends on agg.
    let mut groups: BTreeMap<String, (u64, f64, f64, f64)> = BTreeMap::new();
    let mut matched = 0usize;
    for line in lines {
        if !filter.matches(line) {
            continue;
        }
        matched += 1;
        let sample = match agg {
            Aggregate::Count => Some(1.0),
            Aggregate::Sum(f) | Aggregate::Mean(f) | Aggregate::Min(f) | Aggregate::Max(f) => {
                line.num(f)
            }
        };
        let Some(v) = sample else { continue };
        let entry = groups.entry(group.key(line)).or_insert((0, 0.0, f64::INFINITY, f64::NEG_INFINITY));
        entry.0 += 1;
        entry.1 += v;
        entry.2 = entry.2.min(v);
        entry.3 = entry.3.max(v);
    }
    let rows = groups
        .into_iter()
        .map(|(key, (count, sum, min, max))| {
            let value = match agg {
                Aggregate::Count => count as f64,
                Aggregate::Sum(_) => sum,
                Aggregate::Mean(_) => sum / count as f64,
                Aggregate::Min(_) => min,
                Aggregate::Max(_) => max,
            };
            QueryRow { key, value }
        })
        .collect();
    QueryResult { rows, matched, scanned: lines.len() }
}

/// Canonical scalar rendering shared by grouping and field matching.
pub(crate) fn render_json(j: &Json) -> String {
    match j {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => f64_string(*n),
        Json::Str(s) => s.clone(),
        Json::Arr(_) | Json::Obj(_) => "(composite)".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_obs::validate_line;

    fn lines() -> Vec<TraceLine> {
        [
            r#"{"v":1,"seq":0,"ts_us":9,"level":"info","span":"sim","event":"step","fields":{"tenant":"t0000","util":0.5}}"#,
            r#"{"v":1,"seq":1,"ts_us":9,"level":"info","span":"sim","event":"step","fields":{"tenant":"t0001","util":0.9}}"#,
            r#"{"v":1,"seq":2,"ts_us":9,"level":"warn","span":"resilience","event":"fallback","fields":{"tenant":"t0001"}}"#,
            r#"{"v":1,"seq":3,"ts_us":9,"level":"info","span":"sim","event":"report","fields":{"tenant":"t0000"}}"#,
        ]
        .iter()
        .map(|l| validate_line(l).expect("fixture line validates"))
        .collect()
    }

    #[test]
    fn count_by_span_event() {
        let r = run_query(&lines(), &QueryFilter::default(), &GroupBy::SpanEvent, &Aggregate::Count);
        let got: Vec<(String, i64)> =
            r.rows.iter().map(|row| (row.key.clone(), row.value as i64)).collect();
        assert_eq!(
            got,
            vec![
                ("resilience/fallback".to_string(), 1),
                ("sim/report".to_string(), 1),
                ("sim/step".to_string(), 2)
            ]
        );
        assert_eq!((r.matched, r.scanned), (4, 4));
    }

    #[test]
    fn filter_by_tenant_and_level() {
        let f = QueryFilter {
            field_equals: vec![("tenant".to_string(), "t0001".to_string())],
            ..Default::default()
        };
        let r = run_query(&lines(), &f, &GroupBy::Level, &Aggregate::Count);
        assert_eq!(r.matched, 2);
        assert_eq!(r.rows.iter().map(|x| x.key.as_str()).collect::<Vec<_>>(), vec!["info", "warn"]);

        let f2 = QueryFilter { level: Some(Level::Warn), ..Default::default() };
        let r2 = run_query(&lines(), &f2, &GroupBy::Span, &Aggregate::Count);
        assert_eq!(r2.matched, 1);
        assert_eq!(r2.rows[0].key, "resilience");
    }

    #[test]
    fn numeric_aggregates_skip_lines_without_the_field() {
        let r = run_query(
            &lines(),
            &QueryFilter { span: Some("sim".to_string()), ..Default::default() },
            &GroupBy::All,
            &Aggregate::Mean("util".to_string()),
        );
        assert_eq!(r.matched, 3); // report line matches the filter...
        assert_eq!(r.rows.len(), 1);
        assert!((r.rows[0].value - 0.7).abs() < 1e-12); // ...but only 2 carry util
        let rmax = run_query(
            &lines(),
            &QueryFilter::default(),
            &GroupBy::Field("tenant".to_string()),
            &Aggregate::Max("util".to_string()),
        );
        assert_eq!(rmax.rows.len(), 2);
        assert!((rmax.rows[1].value - 0.9).abs() < 1e-12);
    }

    #[test]
    fn span_event_pairs_outside_the_catalogue_are_rejected() {
        let pair = |span: &str, event: &str| QueryFilter {
            span: Some(span.to_string()),
            event: Some(event.to_string()),
            ..Default::default()
        };
        assert_eq!(pair("sim", "step").check_catalog(), Ok(()));
        let err = pair("sim", "stepp").check_catalog().unwrap_err();
        assert!(err.contains("report, step, zero_workload"), "{err}");
        let err = pair("simm", "step").check_catalog().unwrap_err();
        assert!(err.contains("unknown span \"simm\"") && err.contains("sim,"), "{err}");
        // One-sided filters are exploratory: nothing to check.
        let span_only = QueryFilter { span: Some("simm".to_string()), ..Default::default() };
        assert_eq!(span_only.check_catalog(), Ok(()));
    }

    #[test]
    fn parse_spellings() {
        assert_eq!(GroupBy::parse("tenant").unwrap(), GroupBy::Field("tenant".to_string()));
        assert_eq!(GroupBy::parse("field:metric").unwrap(), GroupBy::Field("metric".to_string()));
        assert!(GroupBy::parse("bogus").is_err());
        assert_eq!(Aggregate::parse("sum:delta").unwrap(), Aggregate::Sum("delta".to_string()));
        assert!(Aggregate::parse("median:x").is_err());
    }

    #[test]
    fn render_is_stable() {
        let r = run_query(&lines(), &QueryFilter::default(), &GroupBy::Span, &Aggregate::Count);
        let text = r.render();
        assert!(text.ends_with("matched 4 of 4 line(s)\n"));
        assert!(text.contains("resilience"));
        assert_eq!(text, r.render());
    }
}
