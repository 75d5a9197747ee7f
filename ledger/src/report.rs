//! The metric tables (name, unit) the ledger prints, and the result
//! line. `BENCHMARK.json` at the repository root declares the same
//! metrics; a unit test holds the two together.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`). The first
/// group comes from the workload's own spans, the rest from isolation
/// probes run in the same process (see `probes.rs`).
pub const PER_LAYER: &[(&str, &str)] = &[
    // The workload's own ops, from spans.
    ("op.share.window", "ratio"),
    ("op.share.forecast", "ratio"),
    ("op.share.plan", "ratio"),
    ("op.share.simulate", "ratio"),
    ("op.share.score", "ratio"),
    ("op.share.tick", "ratio"),
    ("op.share.finish", "ratio"),
    ("op.share.save", "ratio"),
    ("op.share.load", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.residual_frac", "ratio"),
    // The workload's own forecaster (DeepAR, TFT, or the fleets' SeasonalNaive).
    ("forecast.fit_s", "s"),
    ("forecast.predict_p50_us", "us"),
    ("forecast.allocs_per_predict", "count"),
    ("forecast.bytes_per_predict", "B"),
    // The host while the traced run measured (`reference.rs`).
    ("host.slowdown", "ratio"),
    // Isolation probes, the same on every workload.
    ("traces.generate_ms", "ms"),
    ("traces.window_ns", "ns"),
    ("forecast.naive.predict_us", "us"),
    ("nn.gru_apply_ns", "ns"),
    ("nn.attention_forward_us", "us"),
    ("nn.linear_apply_ns", "ns"),
    ("tsmath.matvec_ns", "ns"),
    ("plan.basic_ns", "ns"),
    ("plan.adaptive_ns", "ns"),
    ("plan.uncertainty_ns", "ns"),
    ("lp.plan_simplex_us", "us"),
    ("metrics.score_us", "us"),
    ("simdb.step_ns", "ns"),
    ("simdb.step_observed_ns", "ns"),
    ("resilient.decide_ns", "ns"),
    ("par.dispatch_us", "us"),
    ("par.speedup_2v1", "ratio"),
    ("fleet.build_ms", "ms"),
    ("fleet.tick_p50_us.t1", "us"),
    ("fleet.replan_tick_ms", "ms"),
    ("fleet.share.replan_ticks", "ratio"),
    ("fleet.finish_ms", "ms"),
    ("fleet.share.finish", "ratio"),
    ("supervisor.overhead_frac", "ratio"),
    ("supervisor.steady_allocs_per_tick", "count"),
    ("obs.emit_dark_ns", "ns"),
    ("obs.emit_memory_ns", "ns"),
    ("obs.emit_jsonl_ns", "ns"),
    ("obs.encode_ns_per_event", "ns"),
    ("obs.events_per_tenant_tick", "count"),
    ("obs.json_parse_mb_per_s", "MB/s"),
    ("telemetry.counter_inc_ns", "ns"),
    ("telemetry.hist_record_ns", "ns"),
    ("telemetry.snapshot_ms", "ms"),
    ("telemetry.slo_eval_ms", "ms"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.save_mb_per_s", "MB/s"),
    ("checkpoint.load_mb_per_s", "MB/s"),
    ("checkpoint.allocs_per_save", "count"),
    ("checkpoint.allocs_per_load", "count"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, the metrics being exactly
/// `declared`, in that order, each with its unit.
///
/// # Errors
/// Fails when a declared metric has no value, a value was measured that
/// nothing declares, or a value is not a finite number — a benchmark
/// that prints a partial or NaN result is worse than one that fails.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[(&str, &str)],
    values: &Values,
) -> Result<String, String> {
    if let Some(extra) = values.keys().find(|k| !declared.iter().any(|(n, _)| n == *k)) {
        return Err(format!("measured metric `{extra}` is not declared"));
    }
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let v = *values
            .get(name)
            .ok_or_else(|| format!("declared metric `{name}` was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric `{name}` is not finite ({v})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        // `{}` prints the shortest decimal that reads back to the same
        // f64: every digit measured, no rounding.
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_obs::Json;

    fn fake_values(declared: &[(&'static str, &str)]) -> Values {
        declared.iter().enumerate().map(|(i, (n, _))| (*n, 1.5 + i as f64)).collect()
    }

    /// `name → unit` of one metric list in BENCHMARK.json.
    fn declared_in_benchmark(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = rpas_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let list = match json.as_obj().and_then(|o| o.get(key)) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("BENCHMARK.json `{key}` is not a list: {other:?}"),
        };
        list.iter()
            .map(|m| {
                let o = m.as_obj().expect("metric object");
                let s =
                    |k: &str| o.get(k).and_then(Json::as_str).expect("string field").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn result_line_parses_and_carries_every_declared_metric_once() {
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let line = result_line(true, 12, 0, table, &fake_values(table)).expect("renders");
            let json = rpas_obs::json::parse(&line).expect("result line is JSON");
            let top = json.as_obj().expect("object");
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let metrics = top["metrics"].as_obj().expect("metrics object");

            let declared = declared_in_benchmark(key);
            assert_eq!(declared.len(), metrics.len(), "{key}: count differs from BENCHMARK.json");
            for (name, unit) in &declared {
                // The parser's map would hide a duplicate key, so count
                // occurrences in the text as well.
                assert_eq!(line.matches(&format!("\"{name}\": {{")).count(), 1, "{name}");
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} missing"))
                    .as_obj()
                    .expect("obj");
                assert_eq!(m["unit"].as_str(), Some(unit.as_str()), "{name}");
                assert!(m["value"].as_num().is_some(), "{name}");
            }
        }
    }

    #[test]
    fn names_are_unique_across_both_tables() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn partial_undeclared_or_nan_results_are_refused() {
        let mut v = fake_values(END_TO_END);
        v.remove("op_p50_ms");
        assert!(result_line(true, 1, 0, END_TO_END, &v).unwrap_err().contains("op_p50_ms"));
        let mut v = fake_values(END_TO_END);
        v.insert("bogus", 1.0);
        assert!(result_line(true, 1, 0, END_TO_END, &v).unwrap_err().contains("bogus"));
        let mut v = fake_values(END_TO_END);
        v.insert("setup_s", f64::NAN);
        assert!(result_line(true, 1, 0, END_TO_END, &v).unwrap_err().contains("not finite"));
    }
}
