//! Failure-injection tests: the scaling pipeline must degrade gracefully —
//! never panic, never scale to zero — when its forecaster starts failing
//! mid-flight.

use rpas::core::{
    QuantilePredictivePolicy, ReplanSchedule, RobustAutoScalingManager, ScalingStrategy,
};
use rpas::forecast::{ForecastError, Forecaster, QuantileForecast};
use rpas::simdb::{SimConfig, SimSession};
use rpas::traces::Trace;
use rpas::tsmath::Matrix;
use std::cell::Cell;

/// A forecaster that succeeds for the first `good_calls` forecasts and then
/// returns errors forever (e.g. a model server going away).
struct FlakyForecaster {
    calls: Cell<usize>,
    good_calls: usize,
}

impl FlakyForecaster {
    fn new(good_calls: usize) -> Self {
        Self { calls: Cell::new(0), good_calls }
    }
}

impl Forecaster for FlakyForecaster {
    fn name(&self) -> &'static str {
        "flaky"
    }

    fn fit(&mut self, _series: &[f64]) -> Result<(), ForecastError> {
        Ok(())
    }

    fn forecast_quantiles(
        &self,
        context: &[f64],
        horizon: usize,
        levels: &[f64],
    ) -> Result<QuantileForecast, ForecastError> {
        let n = self.calls.get();
        self.calls.set(n + 1);
        if n >= self.good_calls {
            return Err(ForecastError::NotFitted);
        }
        // Constant forecast at the last context value with ±10% quantile
        // spread.
        let last = *context.last().expect("non-empty context");
        let mut values = Matrix::zeros(horizon, levels.len());
        for h in 0..horizon {
            for (i, &l) in levels.iter().enumerate() {
                values[(h, i)] = last * (0.9 + 0.2 * l);
            }
        }
        QuantileForecast::new(levels.to_vec(), values)
    }
}

#[test]
fn policy_survives_forecaster_outage() {
    let trace = Trace::new("w", 600, (0..200).map(|t| 100.0 + (t % 10) as f64 * 5.0).collect());
    let manager = RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau: 0.9 });
    // Forecaster dies after its second replan.
    let mut policy = QuantilePredictivePolicy::new(
        "flaky-robust",
        FlakyForecaster::new(2),
        manager,
        ReplanSchedule { context: 12, horizon: 12 },
    );
    let report = SimSession::new(&trace, SimConfig::default()).run(&mut policy);

    // Every step produced a decision, and the pool never dropped below the
    // minimum even after the outage.
    assert_eq!(report.steps.len(), 200);
    assert!(report.steps.iter().all(|s| s.target_nodes >= 1));
    // The bootstrap fallback sizes for the recent peak, so the cluster
    // remains roughly adequate: under-provisioning cannot exceed the
    // worst-case reactive bound by much.
    assert!(report.provisioning.under_rate < 0.25, "{:?}", report.provisioning);
}

#[test]
fn forecaster_that_never_works_degrades_to_reactive_bootstrap() {
    let trace = Trace::new("w", 600, vec![150.0; 60]);
    let manager = RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau: 0.9 });
    let mut policy = QuantilePredictivePolicy::new(
        "always-broken",
        FlakyForecaster::new(0),
        manager,
        ReplanSchedule { context: 12, horizon: 12 },
    );
    let report = SimSession::new(&trace, SimConfig::default()).run(&mut policy);
    // After the first observation the bootstrap peak covers the constant
    // workload (ceil(150/60) = 3 nodes).
    let tail = &report.steps[2..];
    assert!(tail.iter().all(|s| s.target_nodes == 3), "{:?}", report.allocations());
}

#[test]
fn flaky_forecaster_error_is_not_sticky() {
    // A forecaster with a transient outage: good, dead for a while, good
    // again. (The policy replans each horizon; a later success must be
    // picked up.) FlakyForecaster can't recover, so emulate the recovered
    // phase by construction: good_calls large but first context too short
    // to forecast — the policy bootstraps, then switches to plans.
    let trace = Trace::new("w", 600, (0..100).map(|t| 60.0 + t as f64).collect());
    let manager = RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau: 0.9 });
    let mut policy = QuantilePredictivePolicy::new(
        "recovering",
        FlakyForecaster::new(usize::MAX),
        manager,
        ReplanSchedule { context: 24, horizon: 8 },
    );
    let report = SimSession::new(&trace, SimConfig::default()).run(&mut policy);
    // Bootstrap covers the first 24 steps, plans cover the rest; the ramp
    // keeps rising so allocations must keep rising too.
    let early = report.steps[10].target_nodes;
    let late = report.steps[95].target_nodes;
    assert!(late > early, "allocations should track the ramp: {early} vs {late}");
}
