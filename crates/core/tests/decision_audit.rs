//! Integration tests for the decision-audit layer: the trace must be a
//! faithful, deterministic reconstruction of Algorithm 1's choices, and
//! the no-op handle must keep evaluation completely dark.

use rpas_core::{
    quantile_windows, uncertainty_at, AdaptiveConfig, RollingSpec, RobustAutoScalingManager,
    ScalingStrategy,
};
use rpas_forecast::{Forecaster, QuantileForecast, SeasonalNaive};
use rpas_obs::{catalog, Level, MemorySink, Obs};
use rpas_traces::alibaba_like;
use rpas_tsmath::Matrix;

/// A 3-level forecast whose per-step quantile spread is `spreads[h]`,
/// giving uncertainty `U_h = 0.2 · spreads[h]` (pinball of ±spread at
/// τ = 0.1/0.9 against the median).
fn forecast_with_spreads(spreads: &[f64]) -> QuantileForecast {
    let levels = vec![0.1, 0.5, 0.9];
    let mut values = Matrix::zeros(spreads.len(), levels.len());
    for (h, &s) in spreads.iter().enumerate() {
        values[(h, 0)] = 50.0 - s;
        values[(h, 1)] = 50.0;
        values[(h, 2)] = 50.0 + s;
    }
    QuantileForecast::new(levels, values).expect("finite cells")
}

#[test]
fn decision_events_reconstruct_the_exact_switch_sequence() {
    // ρ = 1.0 and U = 0.2·spread: spread ≥ 5 → conservative.
    let spreads = [1.0, 10.0, 10.0, 2.0, 8.0, 1.0];
    let expected = ["aggressive", "conservative", "conservative", "aggressive", "conservative", "aggressive"];
    let qf = forecast_with_spreads(&spreads);
    let cfg = AdaptiveConfig::new(0.8, 0.95, 1.0);

    let mem = MemorySink::new();
    let obs = Obs::with_sink(Box::new(mem.clone()));
    let plan = RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Adaptive(cfg))
        .with_obs(obs)
        .plan(&qf);
    assert_eq!(plan.len(), spreads.len());

    let decisions: Vec<_> = mem
        .events()
        .into_iter()
        .filter(|e| e.is(catalog::PLAN_DECISION))
        .collect();
    assert_eq!(decisions.len(), spreads.len(), "one audit event per horizon step");
    for (h, d) in decisions.iter().enumerate() {
        assert_eq!(d.get("step"), Some(rpas_obs::Value::U64(h as u64)));
        assert_eq!(d.get("regime"), Some(rpas_obs::Value::Str(expected[h].into())));
        let tau = if expected[h] == "conservative" { 0.95 } else { 0.8 };
        assert_eq!(d.get("tau"), Some(rpas_obs::Value::F64(tau)));
        // The logged uncertainty is the same metric the planner consulted.
        assert_eq!(d.get("uncertainty"), Some(rpas_obs::Value::F64(uncertainty_at(&qf, h))));
    }

    let summary = mem
        .events()
        .into_iter()
        .find(|e| e.is(catalog::PLAN_SUMMARY))
        .expect("plan summary event");
    assert_eq!(summary.get("conservative_steps"), Some(rpas_obs::Value::U64(3)));
    // a→c, c→a, a→c, c→a: four switches in the expected sequence.
    assert_eq!(summary.get("regime_switches"), Some(rpas_obs::Value::U64(4)));
}

fn rolling_eval_events(seed: u64) -> Vec<String> {
    let trace = alibaba_like(seed, 4).cpu().clone();
    let (train, test) = trace.train_test_split(0.6).unwrap();
    let mut sn = SeasonalNaive::new(24);
    sn.fit(&train.values).expect("fit");

    let mem = MemorySink::new();
    let obs = Obs::with_sink(Box::new(mem.clone()));
    let manager = RobustAutoScalingManager::new(
        60.0,
        1,
        ScalingStrategy::Adaptive(AdaptiveConfig::new(0.8, 0.95, 1.0)),
    )
    .with_obs(obs.clone());
    let spec = RollingSpec::new(24, 24);
    let windows = quantile_windows(&sn, &test.values, spec, &[0.1, 0.5, 0.9], &obs);
    for (qf, _actuals) in &windows {
        manager.plan(qf);
    }
    mem.events().iter().map(|e| e.content_line()).collect()
}

#[test]
fn same_seed_reruns_are_byte_identical_in_content() {
    let a = rolling_eval_events(20240511);
    let b = rolling_eval_events(20240511);
    assert!(a.len() > 10, "expected a real event stream, got {}", a.len());
    // Timing lives only in ts_us/wall_us/*_us slots, which content_line
    // excludes — everything else must match byte for byte.
    assert_eq!(a, b);
    // Different seeds genuinely change the content (the comparison above
    // is not vacuous).
    assert_ne!(a, rolling_eval_events(7));
}

#[test]
fn noop_obs_is_dark_during_rolling_eval() {
    let trace = alibaba_like(3, 4).cpu().clone();
    let (train, test) = trace.train_test_split(0.6).unwrap();
    let mut sn = SeasonalNaive::new(24);
    sn.fit(&train.values).expect("fit");
    let spec = RollingSpec::new(24, 24);

    // A live sink sees the instrumentation...
    let mem = MemorySink::new();
    let live = Obs::with_sink(Box::new(mem.clone()));
    let with_obs = quantile_windows(&sn, &test.values, spec, &[0.5, 0.9], &live);
    assert!(!mem.is_empty(), "live sink must capture rolling events");

    // ...while the no-op handle listens at no level and produces the
    // identical evaluation result.
    let noop = Obs::noop();
    for level in [Level::Error, Level::Warn, Level::Info, Level::Debug] {
        assert!(!noop.enabled(level));
    }
    let dark = quantile_windows(&sn, &test.values, spec, &[0.5, 0.9], &noop);
    assert_eq!(with_obs.len(), dark.len());
    for ((qf_a, act_a), (qf_b, act_b)) in with_obs.iter().zip(&dark) {
        assert_eq!(act_a, act_b);
        assert_eq!(qf_a.levels(), qf_b.levels());
        for h in 0..qf_a.horizon() {
            assert_eq!(qf_a.at(h, 0.9), qf_b.at(h, 0.9));
        }
    }
}
