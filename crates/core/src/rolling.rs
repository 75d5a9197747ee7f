//! The rolling-origin evaluation engine behind the offline *quantile*
//! experiments in the workspace.
//!
//! The paper evaluates forecasters and scaling strategies with the same
//! protocol throughout (§IV): hold out a test series, slide
//! *non-overlapping* decision windows over it, forecast each window from
//! the `context` samples before it, and score the concatenation of all
//! windows. This module owns that loop for everything that plans from a
//! [`QuantileForecast`]: `crate::eval`'s quantile evaluators,
//! `crate::backtest`, and the `experiments` driver.
//!
//! Two loops over the same [`rpas_traces::RollingWindows`] grid are
//! deliberately *not* routed through here, for layering reasons:
//! `rpas-forecast`'s `eval::evaluate_quantile` (Table I scoring) sits
//! below this crate and cannot depend on it, and
//! [`crate::eval::evaluate_plans_point`] must feed each window's realised
//! errors back into the forecaster before the next forecast, which a
//! forecast-everything-first driver cannot do.
//!
//! * [`RollingSpec`] — the `(context, horizon)` pair naming the protocol;
//!   also used as the replan schedule of the online policies (the online
//!   policies replan on exactly the offline protocol's grid, which is what
//!   makes backtests predictive of live behaviour).
//! * [`RollingSpec::windows`] — the window iterator (a thin veneer over
//!   [`rpas_traces::RollingWindows`]).
//! * [`quantile_windows`] — the forecast driver: one
//!   [`QuantileForecast`] + realised actuals per window, timed on the
//!   [`Obs`] handle it is given.
//! * [`plan_windows`] — the full fit/forecast/plan driver: adds the
//!   manager's [`CapacityPlan`] and the window's start offset, which is
//!   everything `crate::backtest` needs to aggregate; its events go to
//!   the manager's own handle.

use crate::manager::RobustAutoScalingManager;
use crate::plan::CapacityPlan;
use rpas_forecast::{Forecaster, QuantileForecast};
use rpas_obs::{catalog, Obs};
use rpas_traces::RollingWindows;

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

    /// The window iterator over a held-out series.
    pub fn windows<'a>(&self, series: &'a [f64]) -> RollingWindows<'a> {
        RollingWindows::new(series, self.context, self.horizon)
    }

    /// Step index (within the series) where window `k`'s forecast starts.
    pub(crate) fn window_start(&self, k: usize) -> usize {
        self.context + k * self.horizon
    }
}

/// One evaluated window of [`plan_windows`]: the forecast, the plan the
/// manager derived from it, and the ground truth it was scored against.
#[derive(Debug, Clone)]
pub struct PlannedWindow {
    /// Window index `k` (chronological).
    pub index: usize,
    /// Step index (within the test series) where this window's plan starts.
    pub start: usize,
    /// The quantile forecast for this window.
    pub forecast: QuantileForecast,
    /// The manager's capacity plan for this window.
    pub plan: CapacityPlan,
    /// The realised workload over the window.
    pub actuals: Vec<f64>,
}

/// Forecast every rolling window of `series`, pairing each forecast with
/// its realised actuals. This is the shared front half of every offline
/// evaluation; strategy sweeps reuse its output across many managers so
/// the expensive forecasting pass runs once.
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

/// The full rolling fit/forecast/plan driver: forecast every window and
/// derive the manager's capacity plan for it. The rolling-window timing
/// events go to `RobustAutoScalingManager::obs`, with its decision audit.
///
/// # Panics
/// As [`quantile_windows`].
pub fn plan_windows<F: Forecaster + ?Sized>(
    forecaster: &F,
    series: &[f64],
    spec: RollingSpec,
    manager: &RobustAutoScalingManager,
    levels: &[f64],
) -> Vec<PlannedWindow> {
    quantile_windows(forecaster, series, spec, levels, manager.obs())
        .into_iter()
        .enumerate()
        .map(|(k, (forecast, actuals))| {
            let plan = manager.plan(&forecast);
            PlannedWindow { index: k, start: spec.window_start(k), forecast, plan, actuals }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::ScalingStrategy;
    use rpas_forecast::SeasonalNaive;

    fn periodic(n: usize) -> Vec<f64> {
        (0..n).map(|t| 60.0 + 50.0 * ((t % 8) as f64 / 7.0)).collect()
    }

    fn fitted_sn() -> SeasonalNaive {
        let mut sn = SeasonalNaive::new(8);
        sn.fit(&periodic(300)).unwrap();
        sn
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
        // The engine must reproduce the hand-written rolling loop it
        // replaced, byte for byte.
        let sn = fitted_sn();
        let test = periodic(120);
        let spec = RollingSpec::new(16, 8);
        let levels = [0.5, 0.9];

        let engine = quantile_windows(&sn, &test, spec, &levels, &Obs::noop());

        let rw = rpas_traces::RollingWindows::new(&test, 16, 8);
        let manual: Vec<_> = rw
            .iter()
            .map(|(ctx, actual)| {
                (sn.forecast_quantiles(ctx, 8, &levels).unwrap(), actual.to_vec())
            })
            .collect();

        assert_eq!(engine.len(), manual.len());
        for ((eq, ea), (mq, ma)) in engine.iter().zip(&manual) {
            assert_eq!(eq.values().data(), mq.values().data());
            assert_eq!(ea, ma);
        }
    }

    #[test]
    fn plan_windows_carry_consistent_offsets() {
        let sn = fitted_sn();
        let test = periodic(120);
        let spec = RollingSpec::new(16, 8);
        let mgr = RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau: 0.9 });
        let planned = plan_windows(&sn, &test, spec, &mgr, &[0.5, 0.9]);
        assert!(!planned.is_empty());
        for (k, w) in planned.iter().enumerate() {
            assert_eq!(w.index, k);
            assert_eq!(w.start, 16 + k * 8);
            assert_eq!(w.plan.as_slice().len(), 8);
            assert_eq!(w.actuals.len(), 8);
            // The plan must be exactly what the manager derives from the
            // stored forecast.
            assert_eq!(w.plan.as_slice(), mgr.plan(&w.forecast).as_slice());
        }
    }
}
