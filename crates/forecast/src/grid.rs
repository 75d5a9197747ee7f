//! The quantile-grid head ("learn a pre-specified grid of quantiles",
//! §III-B / Fig. 3b) shared by [`MlpQuantile`](crate::MlpQuantile) and
//! [`Tft`](crate::Tft): a network output laid out horizon-major,
//! `out[h * |grid| + i]` being step `h` at grid level `i` in z-space,
//! trained on the summed pinball loss of Eq. 2 and decoded to whatever
//! levels the caller asks for.

use crate::types::{validate_levels, ForecastError, QuantileForecast};
use crate::window::require_finite;
use rpas_nn::loss::pinball_grid;
use rpas_tsmath::stats::Standardizer;
use rpas_tsmath::Matrix;

/// Constructor check of a trained grid.
///
/// # Panics
/// Panics unless it is non-empty, strictly increasing and inside `(0, 1)`.
pub(crate) fn assert_valid(grid: &[f64]) {
    let valid = validate_levels(grid);
    assert!(valid.is_ok(), "quantile grid: {valid:?}");
}

/// Pinball loss of one training window, averaged over its horizon: adds
/// each step's term to `loss` and returns the gradient w.r.t. `out`.
pub(crate) fn pinball_step(out: &[f64], target: &[f64], grid: &[f64], loss: &mut f64) -> Vec<f64> {
    let nq = grid.len();
    let scale = 1.0 / target.len() as f64;
    let mut dout = vec![0.0; out.len()];
    for (h, &y) in target.iter().enumerate() {
        let (l, g) = pinball_grid(&out[h * nq..(h + 1) * nq], y, grid);
        *loss += l * scale;
        for (d, gi) in dout[h * nq..(h + 1) * nq].iter_mut().zip(&g) {
            *d = gi * scale;
        }
    }
    dout
}

/// Decode a head output into a forecast at `levels`: `Unhealthy` if the
/// head is not finite (diverged weights), otherwise the grid in data units,
/// returned as is when `levels` is the trained grid and interpolated by
/// [`QuantileForecast::at`] when it is not — the retraining limitation the
/// paper discusses for this family.
pub(crate) fn decode(
    model: &str,
    out: &[f64],
    scaler: &Standardizer,
    grid: &[f64],
    horizon: usize,
    levels: &[f64],
) -> Result<QuantileForecast, ForecastError> {
    require_finite(model, "head output", out)?;
    let nq = grid.len();
    let mut grid_vals = Matrix::zeros(horizon, nq);
    for h in 0..horizon {
        for i in 0..nq {
            grid_vals[(h, i)] = scaler.inverse(out[h * nq + i]);
        }
    }
    let trained = QuantileForecast::new(grid.to_vec(), grid_vals)?;
    if levels == grid {
        return Ok(trained);
    }
    let mut values = Matrix::zeros(horizon, levels.len());
    for h in 0..horizon {
        for (i, &l) in levels.iter().enumerate() {
            values[(h, i)] = trained.at(h, l);
        }
    }
    QuantileForecast::new(levels.to_vec(), values)
}
