//! Rolling backtests: the per-window view behind the aggregate rates of
//! [`crate::eval`]. Operators use this to see *when* a strategy
//! under-provisions (a bad day, a regime change) rather than only how
//! often, and to track cost regret against the clairvoyant oracle
//! allocation.

use crate::manager::RobustAutoScalingManager;
use crate::rolling::{self, RollingSpec};
use rpas_forecast::Forecaster;
use rpas_metrics::{provisioning_rates, ProvisioningReport};

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

/// Backtest a fitted quantile forecaster + manager over rolling windows.
/// The per-window rolling-eval events (`rolling/window` timing and the
/// `rolling/eval` pass summary) go to the manager's own handle,
/// interleaved with its decision audit — attach one with
/// [`RobustAutoScalingManager::with_obs`].
///
/// # Panics
/// Panics when the test series cannot fit a single window or a forecast
/// fails (setup bugs, not data conditions).
pub fn backtest_quantile<F: Forecaster + ?Sized>(
    forecaster: &F,
    test_series: &[f64],
    context: usize,
    horizon: usize,
    manager: &RobustAutoScalingManager,
    levels: &[f64],
) -> BacktestReport {
    let spec = RollingSpec::new(context, horizon);
    let planned = rolling::plan_windows(forecaster, test_series, spec, manager, levels);

    let mut windows = Vec::with_capacity(planned.len());
    let mut all_alloc: Vec<u32> = Vec::new();
    let mut all_actual: Vec<f64> = Vec::new();
    let mut regret: i64 = 0;

    for w in &planned {
        let alloc = w.plan.as_slice();
        let report = provisioning_rates(alloc, &w.actuals, manager.theta(), manager.min_nodes());
        let node_steps: u64 = alloc.iter().map(|&c| c as u64).sum();
        let oracle: u64 = w
            .actuals
            .iter()
            .map(|&x| {
                rpas_metrics::provisioning::required_nodes(x, manager.theta(), manager.min_nodes())
                    as u64
            })
            .sum();
        regret += node_steps as i64 - oracle as i64;
        windows.push(BacktestWindow {
            start: w.start,
            report,
            node_steps,
            oracle_node_steps: oracle,
        });
        all_alloc.extend_from_slice(alloc);
        all_actual.extend_from_slice(&w.actuals);
    }

    BacktestReport {
        overall: provisioning_rates(&all_alloc, &all_actual, manager.theta(), manager.min_nodes()),
        windows,
        cost_regret_node_steps: regret,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::ScalingStrategy;
    use rpas_forecast::SeasonalNaive;

    fn periodic(n: usize) -> Vec<f64> {
        (0..n).map(|t| 60.0 + 50.0 * ((t % 8) as f64 / 7.0)).collect()
    }

    fn backtest(tau: f64) -> BacktestReport {
        let series = periodic(500);
        let (train, test) = series.split_at(300);
        let mut sn = SeasonalNaive::new(8);
        sn.fit(train).unwrap();
        let manager = RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau });
        backtest_quantile(&sn, test, 16, 8, &manager, &[0.5, 0.9])
    }

    #[test]
    fn windows_tile_the_series() {
        let r = backtest(0.9);
        assert!(!r.windows.is_empty());
        for (i, w) in r.windows.iter().enumerate() {
            assert_eq!(w.start, 16 + i * 8);
        }
    }

    #[test]
    fn overall_consistent_with_windows() {
        let r = backtest(0.9);
        // Overall under-rate is the window-average (equal window lengths).
        let avg: f64 =
            r.windows.iter().map(|w| w.report.under_rate).sum::<f64>() / r.windows.len() as f64;
        assert!((avg - r.overall.under_rate).abs() < 1e-9);
    }

    #[test]
    fn higher_tau_costs_more_regret() {
        let lo = backtest(0.5);
        let hi = backtest(0.95);
        assert!(hi.cost_regret_node_steps >= lo.cost_regret_node_steps);
        // On near-perfectly-forecastable data the conservative plan never
        // under-provisions.
        assert!(hi.overall.under_rate < 0.05);
    }

    #[test]
    fn worst_window_is_max_under_rate() {
        let r = backtest(0.5);
        let w = r.worst_window().unwrap();
        assert!(r.windows.iter().all(|x| x.report.under_rate <= w.report.under_rate));
    }

    #[test]
    fn oracle_never_exceeds_feasible_plan_cost_when_feasible() {
        // For a plan with zero under-provisioning, allocated ≥ oracle in
        // every window, so regret ≥ 0.
        let r = backtest(0.95);
        // under_rate is a ratio of integer counts; it is exactly zero iff no step under-provisioned
        if r.overall.under_rate == 0.0 {
            assert!(r.cost_regret_node_steps >= 0);
            for w in &r.windows {
                assert!(w.node_steps >= w.oracle_node_steps);
            }
        }
    }
}
