//! Probabilistic-calibration diagnostics: the reliability curve behind the
//! paper's `Coverage` columns. For a perfectly calibrated forecaster the
//! empirical coverage of the τ-quantile equals τ at every level.

use crate::quantile::coverage;

/// One point on a reliability curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationPoint {
    /// Nominal quantile level τ.
    pub tau: f64,
    /// Empirical coverage of the τ-quantile forecasts.
    pub coverage: f64,
}

/// Reliability curve over a grid of levels: `per_level[i]` holds the
/// predictions at `taus[i]` for each target in `actuals`.
///
/// # Panics
/// Panics when the level count mismatches or any series length differs.
pub fn calibration_curve(
    actuals: &[f64],
    per_level: &[Vec<f64>],
    taus: &[f64],
) -> Vec<CalibrationPoint> {
    assert_eq!(per_level.len(), taus.len(), "calibration: level count mismatch");
    taus.iter()
        .zip(per_level)
        .map(|(&tau, preds)| CalibrationPoint { tau, coverage: coverage(actuals, preds) })
        .collect()
}

/// Mean absolute calibration error `mean_τ |coverage(τ) − τ|`
/// (0 = perfectly calibrated).
///
/// Non-finite curve points (empty-window coverage) are skipped instead of
/// silently poisoning the mean; a curve with no finite point returns
/// `NaN`, making the degenerate case explicit rather than contagious.
pub fn calibration_error(curve: &[CalibrationPoint]) -> f64 {
    assert!(!curve.is_empty(), "empty calibration curve");
    finite_mean(curve.iter().map(|p| (p.coverage - p.tau).abs()))
}

/// Signed mean calibration bias: positive when the forecaster is
/// over-covered (quantiles too high / conservative), negative when
/// under-covered (the dangerous direction for auto-scaling).
///
/// Skips non-finite points exactly like [`calibration_error`].
pub fn calibration_bias(curve: &[CalibrationPoint]) -> f64 {
    assert!(!curve.is_empty(), "empty calibration curve");
    finite_mean(curve.iter().map(|p| p.coverage - p.tau))
}

/// Mean over the finite values of the iterator; `NaN` when none are.
fn finite_mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values.filter(|v| v.is_finite()) {
        sum += v;
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Predictions that are exact empirical quantiles of U{1..100}.
    fn exact_setup() -> (Vec<f64>, Vec<Vec<f64>>, Vec<f64>) {
        let actuals: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let taus: Vec<f64> = vec![0.2, 0.5, 0.8];
        let per_level: Vec<Vec<f64>> =
            taus.iter().map(|&t: &f64| vec![(100.0 * t).floor(); 100]).collect();
        (actuals, per_level, taus)
    }

    #[test]
    fn perfectly_calibrated_curve() {
        let (a, p, t) = exact_setup();
        let curve = calibration_curve(&a, &p, &t);
        for pt in &curve {
            assert!((pt.coverage - pt.tau).abs() <= 0.01, "{pt:?}");
        }
        assert!(calibration_error(&curve) <= 0.01);
        assert!(calibration_bias(&curve).abs() <= 0.01);
    }

    #[test]
    fn under_covered_forecaster_detected() {
        let actuals = vec![10.0; 50];
        // All quantile predictions below the target: coverage 0 everywhere.
        let taus = vec![0.5, 0.9];
        let per_level = vec![vec![5.0; 50], vec![8.0; 50]];
        let curve = calibration_curve(&actuals, &per_level, &taus);
        assert_eq!(curve[0].coverage, 0.0);
        assert!((calibration_error(&curve) - 0.7).abs() < 1e-12);
        assert!(calibration_bias(&curve) < 0.0, "under-coverage must be negative bias");
    }

    #[test]
    fn over_covered_forecaster_detected() {
        let actuals = vec![10.0; 50];
        let taus = vec![0.1, 0.5];
        let per_level = vec![vec![100.0; 50], vec![100.0; 50]];
        let curve = calibration_curve(&actuals, &per_level, &taus);
        assert!(calibration_bias(&curve) > 0.0);
    }

    #[test]
    #[should_panic(expected = "level count mismatch")]
    fn mismatched_levels_panic() {
        calibration_curve(&[1.0], &[vec![1.0]], &[0.1, 0.9]);
    }

    #[test]
    fn nan_coverage_points_do_not_poison_the_error() {
        // Regression: a single empty-window (NaN-coverage) point used to
        // turn the whole calibration error NaN.
        let curve = vec![
            CalibrationPoint { tau: 0.5, coverage: 0.5 },
            CalibrationPoint { tau: 0.9, coverage: f64::NAN },
        ];
        assert_eq!(calibration_error(&curve), 0.0);
        assert_eq!(calibration_bias(&curve), 0.0);
    }

    #[test]
    fn all_nan_curve_stays_nan() {
        // An empty window (idle trace) is how a NaN point arises.
        let curve = calibration_curve(&[], &[vec![]], &[0.5]);
        assert!(curve[0].coverage.is_nan());
        assert!(calibration_error(&curve).is_nan());
        assert!(calibration_bias(&curve).is_nan());
    }
}
