//! The Figs. 9–12 evaluation protocol: roll non-overlapping decision
//! windows over a held-out trace, plan each window from the context before
//! it, and score the concatenated allocations against the realised
//! workload with the under-/over-provisioning rates of §IV-C.

use crate::manager::RobustAutoScalingManager;
use crate::plan::plan_point;
use crate::rolling::RollingSpec;
use rpas_forecast::PointForecaster;
use rpas_metrics::{provisioning_rates, ProvisioningReport};
use rpas_simdb::{Observation, ScalingPolicy};

/// Evaluate a manager against per-window quantile forecasts paired with
/// their realised actuals, as [`crate::rolling::quantile_windows`]
/// produces them. Sweeping many strategies over one forecaster — Figs.
/// 11/12 style — reuses the windows, so the expensive forecasting pass
/// runs once instead of once per strategy cell.
pub fn evaluate_plans_precomputed(
    windows: &[(rpas_forecast::QuantileForecast, Vec<f64>)],
    manager: &RobustAutoScalingManager,
) -> ProvisioningReport {
    assert!(!windows.is_empty(), "need at least one forecast window");
    let mut allocations: Vec<u32> = Vec::new();
    let mut actuals: Vec<f64> = Vec::new();
    for (qf, actual) in windows {
        assert_eq!(qf.horizon(), actual.len(), "forecast/actual horizon mismatch");
        allocations.extend_from_slice(manager.plan(qf).as_slice());
        actuals.extend_from_slice(actual);
    }
    provisioning_rates(&allocations, &actuals, manager.theta(), manager.min_nodes())
}

/// Evaluate a point forecaster (Def. 3 planning) over the same protocol,
/// feeding realised errors back after every window so padding-enhanced
/// models update their pads.
#[expect(clippy::expect_used, reason = "# Panics contract: a failed forecast here is a setup bug")]
pub fn evaluate_plans_point<P: PointForecaster + ?Sized>(
    forecaster: &mut P,
    test_series: &[f64],
    context: usize,
    horizon: usize,
    theta: f64,
    min_nodes: u32,
) -> ProvisioningReport {
    let rw = RollingSpec::new(context, horizon).windows(test_series);
    assert!(!rw.is_empty(), "test series too short for one decision window");
    let mut allocations: Vec<u32> = Vec::new();
    let mut actuals: Vec<f64> = Vec::new();
    for (ctx, actual) in rw.iter() {
        let f = forecaster.forecast(ctx, horizon).expect("forecast failed during evaluation");
        let clamped: Vec<f64> = f.iter().map(|&w| w.max(0.0)).collect();
        allocations.extend_from_slice(plan_point(&clamped, theta, min_nodes).as_slice());
        actuals.extend_from_slice(actual);
        forecaster.observe_errors(actual, &f);
    }
    provisioning_rates(&allocations, &actuals, theta, min_nodes)
}

/// Evaluate a reactive policy step-by-step over the test series (reactive
/// scalers have no horizon; they decide every interval from history).
pub fn evaluate_reactive<P: ScalingPolicy + ?Sized>(
    policy: &mut P,
    test_series: &[f64],
    theta: f64,
    min_nodes: u32,
) -> ProvisioningReport {
    assert!(!test_series.is_empty(), "empty test series");
    let mut allocations = Vec::with_capacity(test_series.len());
    for t in 0..test_series.len() {
        let obs = Observation::new(
            t,
            &test_series[..t],
            allocations.last().copied().unwrap_or(min_nodes),
            theta,
            min_nodes,
        );
        allocations.push(policy.decide(&obs).max(min_nodes));
    }
    provisioning_rates(&allocations, test_series, theta, min_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::ScalingStrategy;
    use crate::reactive::{ReactiveAvg, ReactiveMax};
    use crate::rolling::quantile_windows;
    use rpas_forecast::{Forecaster, LastValue, SeasonalNaive};
    use rpas_obs::Obs;

    fn periodic(n: usize) -> Vec<f64> {
        (0..n).map(|t| 60.0 + 50.0 * ((t % 8) as f64 / 7.0)).collect()
    }

    #[test]
    fn robust_quantile_plan_avoids_underprovisioning_on_periodic_data() {
        let series = periodic(400);
        let (train, test) = series.split_at(300);
        let mut sn = SeasonalNaive::new(8);
        sn.fit(train).unwrap();
        let manager =
            RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau: 0.9 });
        let spec = RollingSpec::new(16, 8);
        let windows = quantile_windows(&sn, test, spec, &[0.5, 0.9], &Obs::noop());
        let r = evaluate_plans_precomputed(&windows, &manager);
        assert!(r.under_rate < 0.05, "under {r:?}");
    }

    #[test]
    fn higher_tau_trades_under_for_over() {
        // Periodic + deterministic noise surrogate: use last-value whose
        // quantile spread follows the random-walk law.
        let series = periodic(500);
        let (train, test) = series.split_at(300);
        let mut lv = LastValue::new();
        Forecaster::fit(&mut lv, train).unwrap();
        let mk = |tau| RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau });
        let spec = RollingSpec::new(16, 8);
        let windows = quantile_windows(&lv, test, spec, &[0.5, 0.9, 0.95], &Obs::noop());
        let lo = evaluate_plans_precomputed(&windows, &mk(0.5));
        let hi = evaluate_plans_precomputed(&windows, &mk(0.95));
        assert!(hi.under_rate <= lo.under_rate, "hi {hi:?} lo {lo:?}");
        assert!(hi.over_rate >= lo.over_rate);
    }

    #[test]
    fn point_eval_feeds_errors() {
        let series = periodic(300);
        let (train, test) = series.split_at(200);
        let mut lv = LastValue::new();
        rpas_forecast::PointForecaster::fit(&mut lv, train).unwrap();
        let mut padded = rpas_forecast::PaddedForecaster::new(lv, "lv-pad", 64, 0.9);
        let r = evaluate_plans_point(&mut padded, test, 16, 8, 60.0, 1);
        assert!(padded.history_len() > 0);
        assert!(r.under_rate + r.over_rate + r.exact_rate > 0.99);
    }

    #[test]
    fn reactive_max_is_more_conservative_than_avg() {
        let series = periodic(400);
        let mut rmax = ReactiveMax::new(6);
        let mut ravg = ReactiveAvg::paper_default();
        let r1 = evaluate_reactive(&mut rmax, &series, 60.0, 1);
        let r2 = evaluate_reactive(&mut ravg, &series, 60.0, 1);
        assert!(r1.under_rate <= r2.under_rate, "{r1:?} vs {r2:?}");
        assert!(r1.avg_allocated >= r2.avg_allocated);
    }

    #[test]
    fn reactive_lags_on_spiky_series() {
        // Alternating quiet/spike: reactive-max sized on the quiet window
        // misses every spike onset.
        let series: Vec<f64> =
            (0..200).map(|t| if (t / 10) % 2 == 0 { 30.0 } else { 300.0 }).collect();
        let mut rmax = ReactiveMax::new(3);
        let r = evaluate_reactive(&mut rmax, &series, 60.0, 1);
        assert!(r.under_rate >= 0.04, "expected lag-driven under-provisioning: {r:?}");
    }
}
