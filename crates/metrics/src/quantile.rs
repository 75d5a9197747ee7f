//! Quantile-forecast metrics: quantile loss, weighted quantile loss and
//! coverage (§IV-B of the paper).

/// Pinball loss summed over a forecast window (Eq. 2, one series):
/// `QL_τ = Σ_h ρ_τ(y_h, ŷ_h)`.
///
/// # Panics
/// Panics if the slices differ in length.
pub(crate) fn quantile_loss(actuals: &[f64], preds: &[f64], tau: f64) -> f64 {
    assert_eq!(actuals.len(), preds.len(), "quantile_loss: length mismatch");
    assert!((0.0..=1.0).contains(&tau), "quantile level out of range");
    actuals
        .iter()
        .zip(preds)
        .map(|(&y, &q)| {
            let d = y - q;
            if d >= 0.0 {
                tau * d
            } else {
                (tau - 1.0) * d
            }
        })
        .sum()
}

/// Weighted quantile loss at level `tau`:
/// `wQL_[τ] = 2 · QL_τ / Σ_h y_h` (the paper's normalisation).
///
/// Returns `NaN` when the actuals sum to zero.
pub fn weighted_quantile_loss(actuals: &[f64], preds: &[f64], tau: f64) -> f64 {
    let denom: f64 = actuals.iter().sum();
    if denom == 0.0 {
        return f64::NAN;
    }
    2.0 * quantile_loss(actuals, preds, tau) / denom
}

/// `Coverage_[τ]`: the fraction of time steps at which the τ-quantile
/// forecast is **at or above** the true target. Perfect calibration gives
/// `Coverage_[τ] = τ`.
pub fn coverage(actuals: &[f64], preds: &[f64]) -> f64 {
    assert_eq!(actuals.len(), preds.len(), "coverage: length mismatch");
    if actuals.is_empty() {
        return f64::NAN;
    }
    let hits = actuals.iter().zip(preds).filter(|(&y, &q)| q >= y).count();
    hits as f64 / actuals.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_loss_zero_for_exact() {
        assert_eq!(quantile_loss(&[1.0, 2.0], &[1.0, 2.0], 0.9), 0.0);
    }

    #[test]
    fn quantile_loss_asymmetric() {
        // Actual above prediction (under-forecast): weight τ.
        assert!((quantile_loss(&[10.0], &[8.0], 0.9) - 1.8).abs() < 1e-12);
        // Actual below prediction (over-forecast): weight 1−τ.
        assert!((quantile_loss(&[8.0], &[10.0], 0.9) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn wql_normalisation() {
        // QL = 1.8, denom = 10 ⇒ wQL = 0.36.
        let w = weighted_quantile_loss(&[10.0], &[8.0], 0.9);
        assert!((w - 0.36).abs() < 1e-12);
    }

    #[test]
    fn wql_nan_for_zero_actuals() {
        assert!(weighted_quantile_loss(&[0.0, 0.0], &[1.0, 1.0], 0.5).is_nan());
    }

    #[test]
    fn coverage_counts_upper_bounds() {
        let actual = [1.0, 2.0, 3.0, 4.0];
        let pred = [1.5, 1.5, 3.5, 3.5];
        // q >= y at indices 0 and 2.
        assert!((coverage(&actual, &pred) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn coverage_perfectly_calibrated_quantile() {
        // Constant prediction at the empirical 0.8 quantile of U{1..10}.
        let actual: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let pred = vec![8.0; 10];
        assert!((coverage(&actual, &pred) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn tighter_quantiles_score_better() {
        let actual = [100.0, 110.0, 90.0, 105.0];
        let tight = [101.0, 111.0, 91.0, 106.0];
        let loose = [130.0, 140.0, 120.0, 135.0];
        assert!(
            weighted_quantile_loss(&actual, &tight, 0.9)
                < weighted_quantile_loss(&actual, &loose, 0.9)
        );
    }
}
