//! Forecast types and the forecaster traits.

use rpas_tsmath::special::norm_quantile;
use rpas_tsmath::Matrix;

/// Errors from fitting or forecasting.
#[derive(Debug, Clone, PartialEq)]
pub enum ForecastError {
    /// The training or context series is shorter than the model requires.
    SeriesTooShort {
        /// Minimum length required.
        needed: usize,
        /// Length supplied.
        got: usize,
    },
    /// `forecast_*` called before `fit`.
    NotFitted,
    /// A configuration value is invalid; the message explains which.
    InvalidConfig(String),
    /// The requested horizon exceeds what the fitted model supports.
    HorizonTooLong {
        /// Maximum supported horizon.
        max: usize,
        /// Requested horizon.
        requested: usize,
    },
    /// A forecast failed a health check. [`QuantileForecast::new`] raises
    /// it for a row holding a non-finite value or whose spread overflows,
    /// so no forecast carries one; health gates wrapping a forecaster raise
    /// it for an implausible magnitude. Every window-trained model (MLP,
    /// MLP-quantile, DeepAR, TFT, QB5000) raises it, naming itself, on a
    /// non-finite value in the context window it reads, or a non-finite
    /// head output or sample, before computing a number through one.
    /// Every `fit` in this crate raises it too, as
    /// `"<model>: non-finite value in training series"`, before training on
    /// a series holding NaN or ±∞.
    Unhealthy(String),
}

impl std::fmt::Display for ForecastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForecastError::SeriesTooShort { needed, got } => {
                write!(f, "series too short: need {needed} samples, got {got}")
            }
            ForecastError::NotFitted => write!(f, "model has not been fitted"),
            ForecastError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            ForecastError::HorizonTooLong { max, requested } => {
                write!(f, "horizon {requested} exceeds fitted maximum {max}")
            }
            ForecastError::Unhealthy(msg) => write!(f, "unhealthy forecast: {msg}"),
        }
    }
}

impl std::error::Error for ForecastError {}

/// A multi-horizon quantile forecast: `values[(h, i)]` is the forecast for
/// step `h` at quantile level `levels[i]`.
///
/// ```
/// use rpas_forecast::QuantileForecast;
/// use rpas_tsmath::Matrix;
///
/// let f = QuantileForecast::new(
///     vec![0.1, 0.5, 0.9],
///     Matrix::from_rows(&[vec![80.0, 100.0, 120.0]]),
/// )?;
/// assert_eq!(f.at(0, 0.5), 100.0);      // exact level
/// assert_eq!(f.at(0, 0.7), 110.0);      // interpolated
/// assert_eq!(f.median(), vec![100.0]);
/// # Ok::<(), rpas_forecast::ForecastError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileForecast {
    levels: Vec<f64>,
    values: Matrix,
}

impl QuantileForecast {
    /// Build a forecast. This is the one place the forecast contract is
    /// checked, so every `QuantileForecast` is well-formed.
    ///
    /// Quantile crossings (a lower level forecasting above a higher one)
    /// are repaired by sorting each step's values — the standard
    /// "rearrangement" fix for independently-predicted quantiles.
    ///
    /// # Errors
    /// `InvalidConfig` if `levels` is not a valid level set (non-empty,
    /// strictly increasing, inside `(0, 1)`) or `values` does not hold one
    /// column per level. `Unhealthy`, naming the step, if a row holds a
    /// non-finite value or its spread (highest minus lowest value after
    /// rearrangement) overflows — so [`QuantileForecast::at`] is finite at
    /// every level in `(0, 1)`.
    pub fn new(levels: Vec<f64>, mut values: Matrix) -> Result<Self, ForecastError> {
        validate_levels(&levels)?;
        if values.cols() != levels.len() {
            return Err(ForecastError::InvalidConfig(format!(
                "{} quantile levels but {} forecast columns",
                levels.len(),
                values.cols()
            )));
        }
        for h in 0..values.rows() {
            let row = values.row_mut(h);
            // Before the crossing test: a NaN compares false and would
            // skip the rearrangement.
            if !row.iter().all(|v| v.is_finite()) {
                return Err(ForecastError::Unhealthy(format!("non-finite value at step {h}")));
            }
            if row.windows(2).any(|w| w[0] > w[1]) {
                row.sort_by(|a, b| a.total_cmp(b));
            }
            if !(row[row.len() - 1] - row[0]).is_finite() {
                let why = format!("quantile spread overflows at step {h}");
                return Err(ForecastError::Unhealthy(why));
            }
        }
        Ok(Self { levels, values })
    }

    /// Gaussian forecast: `step(h)` gives step `h`'s `(center, sd)` and
    /// the cell at level `l` is `center + sd * norm_quantile(l)`. The
    /// z-score of a level does not depend on the step, so each is
    /// evaluated once per call, not once per cell.
    ///
    /// # Errors
    /// As [`QuantileForecast::new`].
    pub fn gaussian(
        levels: &[f64],
        horizon: usize,
        mut step: impl FnMut(usize) -> (f64, f64),
    ) -> Result<Self, ForecastError> {
        // Before the z-scores: `norm_quantile` asserts its level is in (0, 1).
        validate_levels(levels)?;
        let z: Vec<f64> = levels.iter().map(|&l| norm_quantile(l)).collect();
        let mut values = Matrix::zeros(horizon, levels.len());
        for h in 0..horizon {
            let (center, sd) = step(h);
            for (v, &z) in values.row_mut(h).iter_mut().zip(&z) {
                *v = center + sd * z;
            }
        }
        Self::new(levels.to_vec(), values)
    }

    /// Quantile levels (strictly increasing).
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// Forecast horizon (number of future steps).
    pub fn horizon(&self) -> usize {
        self.values.rows()
    }

    /// Raw `horizon × levels` value matrix.
    pub fn values(&self) -> &Matrix {
        &self.values
    }

    /// Forecast at `(step, level)`, interpolating linearly between the
    /// stored levels and clamping outside their range.
    ///
    /// Boundary behavior, precisely:
    ///
    /// * **Exact grid point** — a `level` equal to a stored level (within
    ///   `1e-12`, absorbing float noise from e.g. `0.1 + 0.8`) returns
    ///   that column's value directly, never an interpolation against a
    ///   neighbour.
    /// * **Between grid points** — linear interpolation in level space
    ///   between the two bracketing columns.
    /// * **Below the lowest stored level** — clamps to the first column.
    ///   This is the `position(..) == Some(0)` arm: the first stored
    ///   level already satisfies `l >= level`, so there is no left
    ///   neighbour to interpolate against; extrapolating the tail
    ///   behavior of the predictive distribution from two interior
    ///   quantiles would fabricate information the forecast does not
    ///   carry. (The same arm serves an exact match on the lowest level.)
    /// * **Above the highest stored level** — clamps to the last column,
    ///   symmetrically.
    ///
    /// Because construction rearranges crossing quantiles, the result is
    /// monotone non-decreasing in `level` for a fixed `step`, and because it
    /// refuses a row whose spread overflows, it is finite.
    ///
    /// # Panics
    /// Panics if `step` is out of range or `level` outside `(0, 1)`.
    pub fn at(&self, step: usize, level: f64) -> f64 {
        assert!(step < self.horizon(), "forecast step out of range");
        assert!(level > 0.0 && level < 1.0, "quantile level out of range");
        let row = self.values.row(step);
        match self.levels.iter().position(|&l| l >= level) {
            // level <= lowest stored level: clamp (or exact match on it).
            Some(0) => row[0],
            Some(i) => {
                let (l0, l1) = (self.levels[i - 1], self.levels[i]);
                if (l1 - level).abs() < 1e-12 {
                    // Exact grid point (modulo float noise): direct lookup.
                    row[i]
                } else {
                    let t = (level - l0) / (l1 - l0);
                    row[i - 1] + t * (row[i] - row[i - 1])
                }
            }
            // level above the highest stored level: clamp.
            None => row[row.len() - 1],
        }
    }

    /// The whole series at one quantile level.
    pub fn series(&self, level: f64) -> Vec<f64> {
        (0..self.horizon()).map(|h| self.at(h, level)).collect()
    }

    /// Median (0.5-quantile) series.
    pub fn median(&self) -> Vec<f64> {
        self.series(0.5)
    }

    /// Mean across the stored quantile levels per step — the paper's
    /// "derive the mean value from the forecast obtained at the predefined
    /// quantiles and utilize it as the point prediction" (§IV-B1).
    pub fn level_mean(&self) -> Vec<f64> {
        (0..self.horizon())
            .map(|h| {
                let row = self.values.row(h);
                row.iter().sum::<f64>() / row.len() as f64
            })
            .collect()
    }

    /// True when every step's values are non-decreasing across levels
    /// (always holds after construction; exposed for property tests).
    pub fn is_monotone(&self) -> bool {
        (0..self.horizon()).all(|h| self.values.row(h).windows(2).all(|w| w[0] <= w[1]))
    }
}

/// A probabilistic (quantile) workload forecaster — Definition 2 of the
/// paper: predict future workload at prespecified quantile levels.
pub trait Forecaster {
    /// Short display name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Train on a historical workload series.
    ///
    /// # Errors
    /// Fails when the series is too short for the model's context/horizon,
    /// or holds a non-finite value (`Unhealthy`).
    fn fit(&mut self, series: &[f64]) -> Result<(), ForecastError>;

    /// Forecast `horizon` steps beyond `context` at the given quantile
    /// levels (strictly increasing, each in `(0, 1)`).
    ///
    /// # Errors
    /// Fails when unfitted, the context is too short, the horizon exceeds
    /// the fitted maximum, the level set is invalid (`InvalidConfig`), or
    /// the forecast would not be well-formed (`Unhealthy`, see
    /// [`QuantileForecast::new`]).
    fn forecast_quantiles(
        &self,
        context: &[f64],
        horizon: usize,
        levels: &[f64],
    ) -> Result<QuantileForecast, ForecastError>;

    /// Snapshot the trained weights (and input scaler, where the model has
    /// a global one) in the `rpas-nn` snapshot format; `None` until fitted,
    /// and for models with nothing to snapshot. The neural models restore
    /// one with their `import_weights`, on an instance built from the same
    /// config.
    fn export_weights(&mut self) -> Option<Vec<u8>> {
        None
    }
}

/// A point workload forecaster — Definition 1 of the paper.
pub trait PointForecaster {
    /// Short display name.
    fn name(&self) -> &'static str;

    /// Train on a historical workload series.
    ///
    /// # Errors
    /// Fails when the series is too short or holds a non-finite value.
    fn fit(&mut self, series: &[f64]) -> Result<(), ForecastError>;

    /// Forecast `horizon` point values beyond `context`.
    ///
    /// # Errors
    /// Fails when unfitted or the context/horizon are unsupported.
    fn forecast(&self, context: &[f64], horizon: usize) -> Result<Vec<f64>, ForecastError>;

    /// Feedback channel: scalers report the realised `actuals` against the
    /// `forecasts` issued for them once a window completes. Most models
    /// ignore it; the CloudScale-style padding wrapper uses it to size its
    /// under-estimation pad.
    fn observe_errors(&mut self, actuals: &[f64], forecasts: &[f64]) {
        let _ = (actuals, forecasts);
    }
}

/// Adapter: use a quantile forecaster's median as a point forecaster
/// (e.g. **TFT-point** in the paper — TFT trained/read at the 0.5 quantile).
/// This is the one point view of a [`Forecaster`]; a type implements
/// [`PointForecaster`] by hand only when its point forecast is something
/// other than that median.
pub struct PointFromQuantile<F: Forecaster> {
    inner: F,
    name: &'static str,
}

impl<F: Forecaster> PointFromQuantile<F> {
    /// Wrap a quantile forecaster, overriding its display name.
    pub fn new(inner: F, name: &'static str) -> Self {
        Self { inner, name }
    }
}

impl<F: Forecaster> PointForecaster for PointFromQuantile<F> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ForecastError> {
        self.inner.fit(series)
    }

    fn forecast(&self, context: &[f64], horizon: usize) -> Result<Vec<f64>, ForecastError> {
        Ok(self.inner.forecast_quantiles(context, horizon, &[0.5])?.median())
    }
}

/// `SeriesTooShort` unless `series` (a training series or a context) holds
/// at least `needed` samples (shared by the model impls).
pub(crate) fn require_len(series: &[f64], needed: usize) -> Result<(), ForecastError> {
    if series.len() < needed {
        return Err(ForecastError::SeriesTooShort { needed, got: series.len() });
    }
    Ok(())
}

/// The level rule: a level set is non-empty, strictly increasing and inside
/// `(0, 1)`. [`QuantileForecast::new`] applies it, and each model before
/// its own arithmetic.
pub(crate) fn validate_levels(levels: &[f64]) -> Result<(), ForecastError> {
    if levels.is_empty() {
        return Err(ForecastError::InvalidConfig("empty quantile level set".into()));
    }
    if !levels.windows(2).all(|w| w[0] < w[1]) {
        return Err(ForecastError::InvalidConfig("levels must be strictly increasing".into()));
    }
    if !levels.iter().all(|&l| l > 0.0 && l < 1.0) {
        return Err(ForecastError::InvalidConfig("levels must lie in (0,1)".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qf() -> QuantileForecast {
        // 2 steps × levels {0.1, 0.5, 0.9}.
        QuantileForecast::new(
            vec![0.1, 0.5, 0.9],
            Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0]]),
        )
        .unwrap()
    }

    #[test]
    fn exact_level_lookup() {
        let f = qf();
        assert_eq!(f.at(0, 0.5), 2.0);
        assert_eq!(f.at(1, 0.9), 30.0);
        assert_eq!(f.horizon(), 2);
    }

    #[test]
    fn interpolation_between_levels() {
        let f = qf();
        // Halfway between 0.5 and 0.9.
        assert!((f.at(0, 0.7) - 2.5).abs() < 1e-12);
        // Clamped outside the grid.
        assert_eq!(f.at(0, 0.05), 1.0);
        assert_eq!(f.at(0, 0.99), 3.0);
    }

    #[test]
    fn at_boundary_behavior() {
        let f = qf();
        // Exact match on the lowest level goes through the Some(0) arm.
        assert_eq!(f.at(0, 0.1), 1.0);
        // Anything below the lowest level clamps to the first column.
        assert_eq!(f.at(0, 0.0001), 1.0);
        assert_eq!(f.at(1, 0.05), 10.0);
        // Anything above the highest level clamps to the last column.
        assert_eq!(f.at(0, 0.999), 3.0);
        assert_eq!(f.at(1, 0.95), 30.0);
        // Exact interior grid points are direct lookups, including levels
        // carrying float noise within the 1e-12 snap tolerance.
        assert_eq!(f.at(0, 0.5), 2.0);
        assert_eq!(f.at(0, 0.5 - 1e-13), 2.0);
        // Monotone in level for a fixed step.
        let probes = [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95];
        for w in probes.windows(2) {
            assert!(f.at(0, w[0]) <= f.at(0, w[1]));
        }
    }

    #[test]
    #[should_panic(expected = "quantile level out of range")]
    fn at_rejects_level_one() {
        qf().at(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "forecast step out of range")]
    fn at_rejects_step_past_horizon() {
        qf().at(2, 0.5);
    }

    #[test]
    fn series_and_median() {
        let f = qf();
        assert_eq!(f.median(), vec![2.0, 20.0]);
        assert_eq!(f.series(0.9), vec![3.0, 30.0]);
        assert_eq!(f.level_mean(), vec![2.0, 20.0]);
    }

    #[test]
    fn crossing_quantiles_are_rearranged() {
        let f = QuantileForecast::new(
            vec![0.1, 0.5, 0.9],
            Matrix::from_rows(&[vec![3.0, 1.0, 2.0]]),
        )
        .unwrap();
        assert!(f.is_monotone());
        assert_eq!(f.at(0, 0.1), 1.0);
        assert_eq!(f.at(0, 0.9), 3.0);
    }

    #[test]
    fn rejects_unsorted_levels() {
        let e = QuantileForecast::new(vec![0.5, 0.1], Matrix::zeros(1, 2)).unwrap_err();
        assert_eq!(e, ForecastError::InvalidConfig("levels must be strictly increasing".into()));
    }

    #[test]
    fn rejects_boundary_levels() {
        let e = QuantileForecast::new(vec![0.5, 1.0], Matrix::zeros(1, 2)).unwrap_err();
        assert_eq!(e, ForecastError::InvalidConfig("levels must lie in (0,1)".into()));
    }

    #[test]
    fn rejects_an_empty_level_set_and_a_shape_mismatch() {
        let e = QuantileForecast::new(vec![], Matrix::zeros(1, 0)).unwrap_err();
        assert_eq!(e, ForecastError::InvalidConfig("empty quantile level set".into()));
        let e = QuantileForecast::new(vec![0.5], Matrix::zeros(1, 2)).unwrap_err();
        assert!(matches!(e, ForecastError::InvalidConfig(_)), "{e:?}");
    }

    #[test]
    fn rejects_a_non_finite_cell_or_an_overflowing_spread_naming_the_step() {
        let levels = vec![0.5, 0.9];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // NaN first in a crossing row: the cell check runs before the sort.
            let rows = [vec![1.0, 2.0], vec![bad, 1.0]];
            let e = QuantileForecast::new(levels.clone(), Matrix::from_rows(&rows)).unwrap_err();
            assert_eq!(e, ForecastError::Unhealthy("non-finite value at step 1".into()));
        }
        // Finite cells whose spread is not: `at` would interpolate to ±∞.
        let rows = [vec![f64::MAX, -f64::MAX]];
        let e = QuantileForecast::new(levels.clone(), Matrix::from_rows(&rows)).unwrap_err();
        assert_eq!(e, ForecastError::Unhealthy("quantile spread overflows at step 0".into()));
        // A finite spread at the edge of the range is kept, and `at` is finite.
        let f = QuantileForecast::new(levels, Matrix::from_rows(&[vec![-1.0, f64::MAX]])).unwrap();
        assert!(f.at(0, 0.7).is_finite());
    }

    #[test]
    fn gaussian_refuses_a_bad_level_set_before_any_z_score() {
        let e = QuantileForecast::gaussian(&[0.5, 1.0], 1, |_| (0.0, 1.0)).unwrap_err();
        assert!(matches!(e, ForecastError::InvalidConfig(_)), "{e:?}");
        let sd = [1.0, f64::MAX / 2.0];
        let e = QuantileForecast::gaussian(&[0.1, 0.9], 2, |h| (0.0, sd[h])).unwrap_err();
        assert_eq!(e, ForecastError::Unhealthy("quantile spread overflows at step 1".into()));
    }

    #[test]
    fn validate_levels_cases() {
        assert!(validate_levels(&[0.1, 0.9]).is_ok());
        assert!(validate_levels(&[]).is_err());
        assert!(validate_levels(&[0.9, 0.1]).is_err());
        assert!(validate_levels(&[0.0, 0.5]).is_err());
    }

    #[test]
    fn error_display() {
        let e = ForecastError::SeriesTooShort { needed: 10, got: 3 };
        assert!(e.to_string().contains("10"));
        assert!(ForecastError::NotFitted.to_string().contains("not been fitted"));
        let e = ForecastError::Unhealthy("non-finite values".into());
        assert!(e.to_string().contains("unhealthy"));
    }
}
