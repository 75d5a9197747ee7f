//! Rolling-window evaluation harness shared by the Table I / Fig. 8
//! experiment binaries and the integration tests.

use crate::types::Forecaster;
use rpas_metrics::{coverage, mse, weighted_quantile_loss};
use rpas_traces::RollingWindows;

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

/// Evaluate a fitted quantile forecaster over non-overlapping rolling
/// windows of a held-out series.
///
/// # Panics
/// Panics if any window's forecast fails (the caller controls context and
/// horizon, so a failure is a setup bug, not a data condition).
#[expect(clippy::expect_used, reason = "# Panics contract: a failed forecast here is a setup bug")]
pub fn evaluate_quantile<F: Forecaster + ?Sized>(
    model: &F,
    test_series: &[f64],
    context: usize,
    horizon: usize,
    levels: &[f64],
) -> QuantileEvalReport {
    let rw = RollingWindows::new(test_series, context, horizon);
    assert!(!rw.is_empty(), "test series too short for even one window");

    let mut all_actuals: Vec<f64> = Vec::new();
    let mut per_level: Vec<Vec<f64>> = vec![Vec::new(); levels.len()];
    let mut mean_preds: Vec<f64> = Vec::new();

    for (ctx, actual) in rw.iter() {
        let f = model
            .forecast_quantiles(ctx, horizon, levels)
            .expect("forecast failed during evaluation");
        all_actuals.extend_from_slice(actual);
        for (i, _) in levels.iter().enumerate() {
            per_level[i].extend((0..horizon).map(|h| f.values()[(h, i)]));
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
        model: model.name().to_string(),
        levels: levels.to_vec(),
        wql,
        coverage: cov,
        mean_wql,
        mse: mse(&all_actuals, &mean_preds),
        windows: rw.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{LastValue, SeasonalNaive};

    fn periodic(n: usize) -> Vec<f64> {
        (0..n).map(|t| 50.0 + 10.0 * ((t % 8) as f64)).collect()
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
        let r_sn = evaluate_quantile(&sn, test, 16, 8, &levels);
        let r_lv = evaluate_quantile(&lv, test, 16, 8, &levels);
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
        let r = evaluate_quantile(&sn, test, 16, 8, &[0.5]);
        assert!(r.wql[0] < 1e-9, "wql {}", r.wql[0]);
        assert!(r.mse < 1e-9);
    }

    #[test]
    fn report_accessors() {
        let series = periodic(300);
        let (train, test) = series.split_at(200);
        let mut sn = SeasonalNaive::new(8);
        sn.fit(train).unwrap();
        let r = evaluate_quantile(&sn, test, 16, 8, &[0.5, 0.9]);
        assert!(r.wql_at(0.9).is_some());
        assert!(r.wql_at(0.7).is_none());
        assert!(r.coverage_at(0.5).is_some());
        assert_eq!(r.levels.len(), 2);
        assert!(r.windows > 0);
    }
}
