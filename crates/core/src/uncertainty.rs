//! The forecast-uncertainty metric `U` of Eq. 8: a pinball-style spread of
//! the quantile forecasts around the median forecast.
//!
//! ```text
//! U = Σ_i (τ_i − 𝟙[w^{τ_i} < w^{0.5}]) · (w^{0.5} − w^{τ_i})
//! ```
//!
//! Unlike quantile loss, every term compares a quantile forecast with the
//! *median forecast* rather than the realised target, so `U` is available
//! before the future arrives. Wider predictive distributions yield larger
//! `U`; Fig. 6 of the paper shows `U` tracks realised forecast error.
//!
//! Note on signs: Eq. 8 as printed shares the sign typo of the paper's
//! Eq. 1 (taken literally both produce negative "losses"). We implement
//! the standard pinball form `ρ_τ(median, w^τ)`, which is what makes every
//! term — and therefore `U` — non-negative, as the paper's prose ("a
//! higher value … signifies an elevated level of uncertainty") requires.

use rpas_forecast::QuantileForecast;

/// Uncertainty `U` of the forecast at one step, computed over the
/// forecast's own quantile levels (the median is interpolated if 0.5 is
/// not on the grid).
///
/// ```
/// use rpas_core::uncertainty_at;
/// use rpas_forecast::QuantileForecast;
/// use rpas_tsmath::Matrix;
///
/// let narrow = QuantileForecast::new(vec![0.1, 0.5, 0.9],
///     Matrix::from_rows(&[vec![99.0, 100.0, 101.0]]))?;
/// let wide = QuantileForecast::new(vec![0.1, 0.5, 0.9],
///     Matrix::from_rows(&[vec![60.0, 100.0, 140.0]]))?;
/// assert!(uncertainty_at(&wide, 0) > uncertainty_at(&narrow, 0));
/// # Ok::<(), rpas_forecast::ForecastError>(())
/// ```
///
/// # Panics
/// Panics if `step` is out of range.
pub fn uncertainty_at(forecast: &QuantileForecast, step: usize) -> f64 {
    let median = forecast.at(step, 0.5);
    forecast
        .levels()
        .iter()
        .map(|&tau| rpas_nn::loss::pinball(forecast.at(step, tau), median, tau).0)
        .sum()
}

/// `U` for every step of the forecast horizon.
pub fn uncertainty_series(forecast: &QuantileForecast) -> Vec<f64> {
    (0..forecast.horizon()).map(|h| uncertainty_at(forecast, h)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_tsmath::Matrix;

    fn qf(rows: &[Vec<f64>], levels: Vec<f64>) -> QuantileForecast {
        QuantileForecast::new(levels, Matrix::from_rows(rows)).unwrap()
    }

    #[test]
    fn zero_spread_means_zero_uncertainty() {
        let f = qf(&[vec![50.0, 50.0, 50.0]], vec![0.1, 0.5, 0.9]);
        assert_eq!(uncertainty_at(&f, 0), 0.0);
    }

    #[test]
    fn uncertainty_is_nonnegative_and_grows_with_spread() {
        let narrow = qf(&[vec![48.0, 50.0, 52.0]], vec![0.1, 0.5, 0.9]);
        let wide = qf(&[vec![30.0, 50.0, 70.0]], vec![0.1, 0.5, 0.9]);
        let un = uncertainty_at(&narrow, 0);
        let uw = uncertainty_at(&wide, 0);
        assert!(un >= 0.0);
        assert!(uw > un, "wide {uw} vs narrow {un}");
    }

    #[test]
    fn hand_computed_value() {
        // Levels {0.1, 0.5, 0.9}; values {40, 50, 70}; median = 50.
        // τ=0.1, w=40: ρ_{0.1}(50, 40) = (1 − 0.1)·(50 − 40) · 𝟙-side
        //   = 0.1·(50−40) when forecast is below the median? Pinball with
        //   target=50, pred=40 (under-prediction): τ·(y−ŷ) = 0.1·10 = 1.0.
        // τ=0.5, w=50: 0.
        // τ=0.9, w=70 (over-prediction): (1−τ)(ŷ−y) = 0.1·20 = 2.0.
        // Total U = 3.0.
        let f = qf(&[vec![40.0, 50.0, 70.0]], vec![0.1, 0.5, 0.9]);
        let u = uncertainty_at(&f, 0);
        assert!((u - 3.0).abs() < 1e-12, "u = {u}");
    }

    #[test]
    fn series_matches_per_step() {
        let f = qf(
            &[vec![40.0, 50.0, 70.0], vec![49.0, 50.0, 51.0]],
            vec![0.1, 0.5, 0.9],
        );
        let s = uncertainty_series(&f);
        assert_eq!(s.len(), 2);
        assert!((s[0] - uncertainty_at(&f, 0)).abs() < 1e-15);
        assert!(s[0] > s[1], "step 0 is wider");
    }

    #[test]
    fn asymmetric_spread_counts_both_sides() {
        // Only the upper tail is wide.
        let upper = qf(&[vec![50.0, 50.0, 90.0]], vec![0.1, 0.5, 0.9]);
        // Only the lower tail is wide.
        let lower = qf(&[vec![10.0, 50.0, 50.0]], vec![0.1, 0.5, 0.9]);
        assert!(uncertainty_at(&upper, 0) > 0.0);
        assert!(uncertainty_at(&lower, 0) > 0.0);
    }
}
