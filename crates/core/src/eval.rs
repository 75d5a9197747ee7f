//! The rolling-origin evaluation protocol, in one place.
//!
//! The paper scores every forecaster and every scaling strategy the same
//! way (§IV): hold out a test series, slide *non-overlapping* decision
//! windows over it, forecast each window from the `context` samples before
//! it, and score the concatenation of all windows. Table I, Figs. 6–12, the
//! ablations and the CLI `backtest` all run it through this module:
//!
//! * [`RollingSpec`] — the `(context, horizon)` pair naming the grid; its
//!   [`RollingSpec::windows`] is the grid itself, an
//!   [`rpas_traces::WindowDataset`] at stride = horizon. The same pair is
//!   the replan schedule of the online policies (`ReplanSchedule`), which
//!   is what makes a backtest predictive of live behaviour.
//! * [`quantile_windows`] — the one forecast pass: one [`QuantileForecast`]
//!   plus its realised actuals per window, timed on the [`Obs`] handle it
//!   is given.
//! * [`evaluate_quantile`] — the quality scorer over the pass's output (the
//!   wQL / coverage / MSE columns of Table I and Fig. 8).
//! * [`backtest`] — the plan scorer over the pass's output: one manager's
//!   plans, per-window and overall provisioning rates, and cost regret
//!   against the clairvoyant allocation. A strategy sweep forecasts once
//!   and scores many managers on the same windows.
//!
//! Two protocols sit beside the pass rather than on it:
//! [`evaluate_plans_point`] feeds each window's realised errors back into
//! the forecaster before the next forecast, and [`evaluate_reactive`]
//! decides step by step from the whole history.

use crate::manager::RobustAutoScalingManager;
use crate::plan::{plan_point, CapacityPlan};
use rpas_forecast::{Forecaster, PointForecaster, QuantileForecast};
use rpas_metrics::provisioning::required_nodes;
use rpas_metrics::{
    coverage, mse, provisioning_rates, provisioning_rates_over, weighted_quantile_loss,
    ProvisioningReport,
};
use rpas_obs::{catalog, Obs};
use rpas_simdb::{Observation, ScalingPolicy};
use rpas_traces::WindowDataset;

/// Parameters of the rolling-origin protocol: forecast `horizon` steps
/// from the `context` samples before them, advancing by `horizon` so the
/// evaluation windows tile the series without overlap.
///
/// The same pair doubles as the replan schedule of the online policies in
/// `crate::autoscaler` (re-exported there as `ReplanSchedule`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollingSpec {
    /// Context window fed to the forecaster.
    pub context: usize,
    /// Forecast / decision horizon `H` (also the stride between windows).
    pub horizon: usize,
}

impl RollingSpec {
    /// New spec.
    ///
    /// # Panics
    /// Panics on zero context or horizon.
    pub fn new(context: usize, horizon: usize) -> Self {
        assert!(context > 0 && horizon > 0, "degenerate rolling spec");
        Self { context, horizon }
    }

    /// The rolling grid over a held-out series: window `k` is
    /// `(series[k·h .. k·h + c], series[c + k·h ..][..h])`.
    pub fn windows<'a>(&self, series: &'a [f64]) -> WindowDataset<'a> {
        WindowDataset::rolling(series, self.context, self.horizon)
    }

    /// Step index (within the series) where window `k`'s forecast starts.
    fn window_start(&self, k: usize) -> usize {
        self.context + k * self.horizon
    }
}

/// Forecast every rolling window of `series`, pairing each forecast with
/// its realised actuals: the one forecast pass every scorer here reads.
///
/// Emits one `rolling/window` debug event per decision window on `obs`
/// (index, start, and the forecast's wall time in the timing-only
/// `forecast_us` field) plus a `rolling/eval` info summary for the whole
/// pass; pass [`Obs::noop`] to stay dark.
///
/// # Panics
/// Panics if the series cannot fit one window, or a forecast fails (the
/// caller controls context and horizon, so a failure is a setup bug, not
/// a data condition).
#[expect(clippy::disallowed_types, reason = "Instant feeds only obs wall_us fields; no result depends on it")]
#[expect(clippy::expect_used, reason = "# Panics contract: a failed forecast here is a setup bug")]
pub fn quantile_windows<F: Forecaster + ?Sized>(
    forecaster: &F,
    series: &[f64],
    spec: RollingSpec,
    levels: &[f64],
    obs: &Obs,
) -> Vec<(QuantileForecast, Vec<f64>)> {
    let rw = spec.windows(series);
    assert!(!rw.is_empty(), "test series too short for one decision window");
    let pass = std::time::Instant::now();
    let out: Vec<_> = rw
        .iter()
        .enumerate()
        .map(|(k, (ctx, actual))| {
            let t0 = std::time::Instant::now();
            let qf = forecaster
                .forecast_quantiles(ctx, spec.horizon, levels)
                .expect("forecast failed during rolling evaluation");
            obs.emit(catalog::ROLLING_WINDOW, |e| {
                e.field("index", k)
                    .field("start", spec.window_start(k))
                    .field("horizon", spec.horizon)
                    .field("forecast_us", t0.elapsed().as_micros() as u64);
            });
            (qf, actual.to_vec())
        })
        .collect();
    obs.emit(catalog::ROLLING_EVAL, |e| {
        e.field("forecaster", forecaster.name())
            .field("windows", out.len())
            .field("context", spec.context)
            .field("horizon", spec.horizon);
        e.wall_us = Some(pass.elapsed().as_micros() as u64);
    });
    out
}

/// Per-level and aggregate quality of a quantile forecaster over a rolling
/// evaluation (the columns of Table I).
#[derive(Debug, Clone)]
pub struct QuantileEvalReport {
    /// Model display name.
    pub model: String,
    /// Quantile levels evaluated.
    pub levels: Vec<f64>,
    /// `wQL_[τ]` per level (aggregated across all windows).
    pub wql: Vec<f64>,
    /// `Coverage_[τ]` per level.
    pub coverage: Vec<f64>,
    /// Mean of `wql` across levels.
    pub mean_wql: f64,
    /// MSE of the level-mean point prediction (§IV-B1's supplementary
    /// point metric).
    pub mse: f64,
    /// Number of rolling windows evaluated.
    pub windows: usize,
}

impl QuantileEvalReport {
    /// `wQL` at one level (exact match on the evaluated grid).
    pub fn wql_at(&self, level: f64) -> Option<f64> {
        self.levels.iter().position(|&l| (l - level).abs() < 1e-9).map(|i| self.wql[i])
    }

    /// `Coverage` at one level.
    pub fn coverage_at(&self, level: f64) -> Option<f64> {
        self.levels.iter().position(|&l| (l - level).abs() < 1e-9).map(|i| self.coverage[i])
    }
}

/// Score the forecasts of one [`quantile_windows`] pass of `model` at
/// every level they carry: wQL and coverage per level over the
/// concatenated windows, and the MSE of the level mean.
///
/// # Panics
/// Panics on an empty pass.
pub fn evaluate_quantile(
    model: &str,
    windows: &[(QuantileForecast, Vec<f64>)],
) -> QuantileEvalReport {
    assert!(!windows.is_empty(), "need at least one forecast window");
    let levels = windows[0].0.levels();
    let mut all_actuals: Vec<f64> = Vec::new();
    let mut per_level: Vec<Vec<f64>> = vec![Vec::new(); levels.len()];
    let mut mean_preds: Vec<f64> = Vec::new();
    for (f, actual) in windows {
        all_actuals.extend_from_slice(actual);
        for (i, preds) in per_level.iter_mut().enumerate() {
            preds.extend((0..f.horizon()).map(|h| f.values()[(h, i)]));
        }
        mean_preds.extend(f.level_mean());
    }

    let wql: Vec<f64> = levels
        .iter()
        .zip(&per_level)
        .map(|(&tau, preds)| weighted_quantile_loss(&all_actuals, preds, tau))
        .collect();
    let cov: Vec<f64> = per_level.iter().map(|preds| coverage(&all_actuals, preds)).collect();
    let mean_wql = wql.iter().sum::<f64>() / wql.len() as f64;

    QuantileEvalReport {
        model: model.to_string(),
        levels: levels.to_vec(),
        wql,
        coverage: cov,
        mean_wql,
        mse: mse(&all_actuals, &mean_preds),
        windows: windows.len(),
    }
}

/// One decision window of a backtest.
#[derive(Debug, Clone)]
pub struct BacktestWindow {
    /// Step index (within the test series) where this window's plan starts.
    pub start: usize,
    /// Provisioning quality of this window alone.
    pub report: ProvisioningReport,
    /// Node-intervals the plan paid for in this window.
    pub node_steps: u64,
    /// Node-intervals the clairvoyant minimum allocation would have paid.
    pub oracle_node_steps: u64,
}

/// Full backtest result.
#[derive(Debug, Clone)]
pub struct BacktestReport {
    /// Per-window breakdown, in chronological order.
    pub windows: Vec<BacktestWindow>,
    /// Aggregate provisioning rates over all windows.
    pub overall: ProvisioningReport,
    /// `Σ (allocated − oracle)` node-intervals. Positive = paid capacity
    /// above the clairvoyant minimum; can be negative only by
    /// under-provisioning.
    pub cost_regret_node_steps: i64,
}

impl BacktestReport {
    /// The window with the worst under-provisioning rate.
    #[expect(clippy::expect_used, reason = "under_rate is a ratio of counts, never NaN")]
    pub fn worst_window(&self) -> Option<&BacktestWindow> {
        self.windows
            .iter()
            .max_by(|a, b| a.report.under_rate.partial_cmp(&b.report.under_rate).expect("finite"))
    }
}

/// Score `manager` on the forecasts of one [`quantile_windows`] pass over
/// `spec`'s grid: plan every window in order (the manager's decision audit
/// goes to its own handle), then rate each window alone and all of them
/// concatenated, and count the node-intervals paid above the clairvoyant
/// minimum.
///
/// # Panics
/// Panics on an empty pass or a window whose forecast and actuals differ
/// in length.
pub fn backtest(
    windows: &[(QuantileForecast, Vec<f64>)],
    spec: RollingSpec,
    manager: &RobustAutoScalingManager,
) -> BacktestReport {
    assert!(!windows.is_empty(), "need at least one forecast window");
    let (theta, min_nodes) = (manager.theta(), manager.min_nodes());
    let plans: Vec<CapacityPlan> = windows.iter().map(|(qf, _)| manager.plan(qf)).collect();

    let per_window: Vec<BacktestWindow> = plans
        .iter()
        .zip(windows)
        .enumerate()
        .map(|(k, (plan, (_, actual)))| {
            let alloc = plan.as_slice();
            BacktestWindow {
                start: spec.window_start(k),
                report: provisioning_rates(alloc, actual, theta, min_nodes),
                node_steps: alloc.iter().map(|&c| c as u64).sum(),
                oracle_node_steps: actual
                    .iter()
                    .map(|&x| required_nodes(x, theta, min_nodes) as u64)
                    .sum(),
            }
        })
        .collect();
    let regret =
        per_window.iter().map(|w| w.node_steps as i64 - w.oracle_node_steps as i64).sum();

    let periods = plans.iter().zip(windows).flat_map(|(plan, (_, actual))| {
        plan.as_slice().iter().copied().zip(actual.iter().copied())
    });
    BacktestReport {
        overall: provisioning_rates_over(periods, theta, min_nodes),
        windows: per_window,
        cost_regret_node_steps: regret,
    }
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
    use rpas_forecast::{LastValue, SeasonalNaive};

    fn periodic(n: usize) -> Vec<f64> {
        (0..n).map(|t| 60.0 + 50.0 * ((t % 8) as f64 / 7.0)).collect()
    }

    fn fitted_sn() -> SeasonalNaive {
        let mut sn = SeasonalNaive::new(8);
        sn.fit(&periodic(300)).unwrap();
        sn
    }

    fn pass<F: Forecaster + ?Sized>(
        model: &F,
        test: &[f64],
        levels: &[f64],
    ) -> Vec<(QuantileForecast, Vec<f64>)> {
        quantile_windows(model, test, RollingSpec::new(16, 8), levels, &Obs::noop())
    }

    fn manager(tau: f64) -> RobustAutoScalingManager {
        RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau })
    }

    #[test]
    fn spec_window_starts_tile_the_series() {
        let spec = RollingSpec::new(16, 8);
        let series = periodic(100);
        let rw = spec.windows(&series);
        for k in 0..rw.len() {
            let (ctx, act) = rw.window(k);
            assert_eq!(ctx.len(), 16);
            assert_eq!(act.len(), 8);
            assert_eq!(spec.window_start(k), 16 + k * 8);
        }
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_horizon_rejected() {
        RollingSpec::new(16, 0);
    }

    #[test]
    fn quantile_windows_match_manual_loop() {
        // The pass must reproduce the hand-written rolling loop, byte for
        // byte: window k reads test[8k .. 8k + 16] and predicts
        // test[16 + 8k ..][..8].
        let sn = fitted_sn();
        let test = periodic(120);
        let levels = [0.5, 0.9];

        let engine = pass(&sn, &test, &levels);

        let mut manual = Vec::new();
        let mut k = 0;
        while 16 + (k + 1) * 8 <= test.len() {
            let ctx = &test[k * 8..k * 8 + 16];
            let actual = &test[16 + k * 8..][..8];
            manual.push((sn.forecast_quantiles(ctx, 8, &levels).unwrap(), actual.to_vec()));
            k += 1;
        }

        assert_eq!(engine.len(), manual.len());
        for ((eq, ea), (mq, ma)) in engine.iter().zip(&manual) {
            assert_eq!(eq.values().data(), mq.values().data());
            assert_eq!(ea, ma);
        }
    }

    #[test]
    fn backtest_plans_each_window_with_the_manager_at_consistent_offsets() {
        let test = periodic(120);
        let spec = RollingSpec::new(16, 8);
        let mgr = manager(0.9);
        let windows = pass(&fitted_sn(), &test, &[0.5, 0.9]);
        let r = backtest(&windows, spec, &mgr);
        assert_eq!(r.windows.len(), windows.len());
        for (k, (w, (forecast, actual))) in r.windows.iter().zip(&windows).enumerate() {
            assert_eq!(w.start, 16 + k * 8);
            assert_eq!(actual.len(), 8);
            // The window is scored on exactly the plan the manager derives
            // from its forecast.
            let plan = mgr.plan(forecast);
            assert_eq!(plan.as_slice().len(), 8);
            assert_eq!(w.report, provisioning_rates(plan.as_slice(), actual, 60.0, 1));
            assert_eq!(w.node_steps, plan.as_slice().iter().map(|&c| c as u64).sum::<u64>());
        }
    }

    // The quality scorer.

    fn score<F: Forecaster + ?Sized>(
        model: &F,
        test: &[f64],
        levels: &[f64],
    ) -> QuantileEvalReport {
        evaluate_quantile(model.name(), &pass(model, test, levels))
    }

    #[test]
    fn seasonal_naive_beats_last_value_on_periodic_data() {
        let series = periodic(400);
        let (train, test) = series.split_at(300);
        let mut sn = SeasonalNaive::new(8);
        sn.fit(train).unwrap();
        let mut lv = LastValue::new();
        Forecaster::fit(&mut lv, train).unwrap();

        let levels = [0.1, 0.5, 0.9];
        let r_sn = score(&sn, test, &levels);
        let r_lv = score(&lv, test, &levels);
        assert!(r_sn.mean_wql < r_lv.mean_wql, "{} vs {}", r_sn.mean_wql, r_lv.mean_wql);
        assert!(r_sn.mse < r_lv.mse);
    }

    #[test]
    fn perfect_forecaster_scores_zero() {
        // Purely periodic data: seasonal naive is exact, wQL = 0.
        let series = periodic(400);
        let (train, test) = series.split_at(300);
        let mut sn = SeasonalNaive::new(8);
        sn.fit(train).unwrap();
        let r = score(&sn, test, &[0.5]);
        assert!(r.wql[0] < 1e-9, "wql {}", r.wql[0]);
        assert!(r.mse < 1e-9);
    }

    #[test]
    fn report_accessors() {
        let series = periodic(300);
        let (train, test) = series.split_at(200);
        let mut sn = SeasonalNaive::new(8);
        sn.fit(train).unwrap();
        let r = score(&sn, test, &[0.5, 0.9]);
        assert_eq!(r.model, sn.name());
        assert!(r.wql_at(0.9).is_some());
        assert!(r.wql_at(0.7).is_none());
        assert!(r.coverage_at(0.5).is_some());
        assert_eq!(r.levels.len(), 2);
        assert!(r.windows > 0);
    }

    // The plan scorer.

    fn backtest_at(tau: f64) -> BacktestReport {
        let series = periodic(500);
        let (train, test) = series.split_at(300);
        let mut sn = SeasonalNaive::new(8);
        sn.fit(train).unwrap();
        backtest(&pass(&sn, test, &[0.5, 0.9]), RollingSpec::new(16, 8), &manager(tau))
    }

    #[test]
    fn robust_quantile_plan_avoids_underprovisioning_on_periodic_data() {
        let series = periodic(400);
        let (train, test) = series.split_at(300);
        let mut sn = SeasonalNaive::new(8);
        sn.fit(train).unwrap();
        let windows = pass(&sn, test, &[0.5, 0.9]);
        let r = backtest(&windows, RollingSpec::new(16, 8), &manager(0.9)).overall;
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
        let spec = RollingSpec::new(16, 8);
        let windows = pass(&lv, test, &[0.5, 0.9, 0.95]);
        let lo = backtest(&windows, spec, &manager(0.5)).overall;
        let hi = backtest(&windows, spec, &manager(0.95)).overall;
        assert!(hi.under_rate <= lo.under_rate, "hi {hi:?} lo {lo:?}");
        assert!(hi.over_rate >= lo.over_rate);
    }

    #[test]
    fn windows_tile_the_series() {
        let r = backtest_at(0.9);
        assert!(!r.windows.is_empty());
        for (i, w) in r.windows.iter().enumerate() {
            assert_eq!(w.start, 16 + i * 8);
        }
    }

    #[test]
    fn overall_consistent_with_windows() {
        let r = backtest_at(0.9);
        // Overall under-rate is the window-average (equal window lengths).
        let avg: f64 =
            r.windows.iter().map(|w| w.report.under_rate).sum::<f64>() / r.windows.len() as f64;
        assert!((avg - r.overall.under_rate).abs() < 1e-9);
    }

    #[test]
    fn higher_tau_costs_more_regret() {
        let lo = backtest_at(0.5);
        let hi = backtest_at(0.95);
        assert!(hi.cost_regret_node_steps >= lo.cost_regret_node_steps);
        // On near-perfectly-forecastable data the conservative plan never
        // under-provisions.
        assert!(hi.overall.under_rate < 0.05);
    }

    #[test]
    fn worst_window_is_max_under_rate() {
        let r = backtest_at(0.5);
        let w = r.worst_window().unwrap();
        assert!(r.windows.iter().all(|x| x.report.under_rate <= w.report.under_rate));
    }

    #[test]
    fn oracle_never_exceeds_feasible_plan_cost_when_feasible() {
        // For a plan with zero under-provisioning, allocated ≥ oracle in
        // every window, so regret ≥ 0.
        let r = backtest_at(0.95);
        // under_rate is a ratio of integer counts; it is exactly zero iff no step under-provisioned
        if r.overall.under_rate == 0.0 {
            assert!(r.cost_regret_node_steps >= 0);
            for w in &r.windows {
                assert!(w.node_steps >= w.oracle_node_steps);
            }
        }
    }

    // The protocols beside the pass.

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
