//! Additive Holt–Winters (triple exponential smoothing): the classic
//! statistical forecaster for seasonal workloads, complementing ARIMA in
//! the "traditional statistical models" family the paper compares against
//! (§III-B2). Quantile forecasts come from the in-sample residual spread,
//! widened with horizon by the smoothing-induced variance growth.

use crate::types::{require_len, validate_levels, ForecastError, Forecaster, QuantileForecast};
use crate::window::{require_finite, require_series};
use rpas_tsmath::stats;

/// Holt–Winters configuration (additive trend + additive seasonality).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoltWintersConfig {
    /// Season length in steps (144 = daily at 10-minute sampling).
    pub period: usize,
    /// Level smoothing factor α ∈ (0, 1).
    pub alpha: f64,
    /// Trend smoothing factor β ∈ (0, 1).
    pub beta: f64,
    /// Seasonal smoothing factor γ ∈ (0, 1).
    pub gamma: f64,
    /// Damping on the trend extrapolation φ ∈ (0, 1]; < 1 prevents runaway
    /// long-horizon trends on noisy traces.
    pub damping: f64,
}

impl Default for HoltWintersConfig {
    fn default() -> Self {
        Self { period: 144, alpha: 0.3, beta: 0.05, gamma: 0.2, damping: 0.98 }
    }
}

/// Fitted Holt–Winters state.
#[derive(Debug, Clone)]
struct FittedHw {
    residual_std: f64,
}

/// Additive Holt–Winters forecaster.
#[derive(Debug, Clone)]
pub struct HoltWinters {
    cfg: HoltWintersConfig,
    fitted: Option<FittedHw>,
}

/// Smoothing state after running the recursion over a series.
struct HwState {
    level: f64,
    trend: f64,
    seasonal: Vec<f64>,
    /// Index (mod period) of the NEXT season slot to use.
    next_slot: usize,
}

impl HoltWinters {
    /// New unfitted model.
    ///
    /// # Panics
    /// Panics on out-of-range smoothing factors or zero period.
    pub fn new(cfg: HoltWintersConfig) -> Self {
        assert!(cfg.period > 0, "period must be positive");
        for (name, v) in [("alpha", cfg.alpha), ("beta", cfg.beta), ("gamma", cfg.gamma)] {
            assert!(v > 0.0 && v < 1.0, "{name} must be in (0,1), got {v}");
        }
        assert!(cfg.damping > 0.0 && cfg.damping <= 1.0, "damping must be in (0,1]");
        Self { cfg, fitted: None }
    }

    /// Run the smoothing recursion over `series`, returning the final state
    /// and one-step-ahead residuals.
    fn smooth(&self, series: &[f64]) -> (HwState, Vec<f64>) {
        let m = self.cfg.period;
        let (alpha, beta, gamma, phi) =
            (self.cfg.alpha, self.cfg.beta, self.cfg.gamma, self.cfg.damping);

        // Initialise from the first two seasons.
        let first_season_mean = stats::mean(&series[..m]);
        let second_season_mean = stats::mean(&series[m..2 * m]);
        let mut level = first_season_mean;
        let mut trend = (second_season_mean - first_season_mean) / m as f64;
        let mut seasonal: Vec<f64> = (0..m).map(|i| series[i] - first_season_mean).collect();

        let mut residuals = Vec::with_capacity(series.len());
        for (t, &y) in series.iter().enumerate() {
            let s_idx = t % m;
            let pred = level + phi * trend + seasonal[s_idx];
            residuals.push(y - pred);
            let new_level = alpha * (y - seasonal[s_idx]) + (1.0 - alpha) * (level + phi * trend);
            let new_trend = beta * (new_level - level) + (1.0 - beta) * phi * trend;
            seasonal[s_idx] = gamma * (y - new_level) + (1.0 - gamma) * seasonal[s_idx];
            level = new_level;
            trend = new_trend;
        }
        let next_slot = series.len() % m;
        (HwState { level, trend, seasonal, next_slot }, residuals)
    }

    fn min_series(&self) -> usize {
        2 * self.cfg.period + 1
    }
}

impl Forecaster for HoltWinters {
    fn name(&self) -> &'static str {
        "holt-winters"
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ForecastError> {
        require_series(self.name(), series, self.min_series())?;
        let (_, residuals) = self.smooth(series);
        // Skip the first season: initialisation transients inflate it.
        let tail = &residuals[self.cfg.period.min(residuals.len() - 1)..];
        let residual_std = stats::std_dev(tail).max(1e-9);
        self.fitted = Some(FittedHw { residual_std });
        Ok(())
    }

    fn forecast_quantiles(
        &self,
        context: &[f64],
        horizon: usize,
        levels: &[f64],
    ) -> Result<QuantileForecast, ForecastError> {
        validate_levels(levels)?;
        let f = self.fitted.as_ref().ok_or(ForecastError::NotFitted)?;
        require_len(context, self.min_series())?;
        require_finite(self.name(), "value in context", context)?;
        let state = self.smooth(context).0;
        let m = self.cfg.period;
        let phi = self.cfg.damping;

        let mut damped_sum = 0.0;
        let mut damp = phi;
        QuantileForecast::gaussian(levels, horizon, |h| {
            damped_sum += damp;
            damp *= phi;
            let point =
                state.level + damped_sum * state.trend + state.seasonal[(state.next_slot + h) % m];
            // Forecast-variance growth ≈ 1 + (h)·α² for additive smoothing.
            (point, f.residual_std * (1.0 + h as f64 * self.cfg.alpha.powi(2)).sqrt())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_tsmath::rng::{seeded, standard_normal};

    fn cfg(period: usize) -> HoltWintersConfig {
        HoltWintersConfig { period, ..Default::default() }
    }

    fn seasonal_series(n: usize, period: usize, noise: f64, seed: u64) -> Vec<f64> {
        let mut r = seeded(seed);
        (0..n)
            .map(|t| {
                100.0
                    + 20.0 * (2.0 * std::f64::consts::PI * t as f64 / period as f64).sin()
                    + noise * standard_normal(&mut r)
            })
            .collect()
    }

    #[test]
    fn tracks_pure_seasonality() {
        let series = seasonal_series(400, 16, 0.5, 1);
        let mut m = HoltWinters::new(cfg(16));
        m.fit(&series).unwrap();
        let ctx = &series[..320];
        let f = m.forecast_quantiles(ctx, 16, &[0.5]).unwrap().median();
        for (h, &v) in f.iter().enumerate() {
            let truth =
                100.0 + 20.0 * (2.0 * std::f64::consts::PI * ((320 + h) % 16) as f64 / 16.0).sin();
            assert!((v - truth).abs() < 4.0, "h={h}: {v} vs {truth}");
        }
    }

    #[test]
    fn tracks_trend_with_damping() {
        // Linear ramp + seasonality: near-term forecasts continue the ramp.
        let period = 12;
        let series: Vec<f64> = (0..300)
            .map(|t| {
                50.0 + 0.5 * t as f64
                    + 8.0 * (2.0 * std::f64::consts::PI * t as f64 / period as f64).sin()
            })
            .collect();
        let mut m = HoltWinters::new(cfg(period));
        m.fit(&series).unwrap();
        let f = m.forecast_quantiles(&series, 6, &[0.5]).unwrap().median();
        let last_level = 50.0 + 0.5 * 299.0;
        for (h, &v) in f.iter().enumerate() {
            let expect = last_level
                + 0.5 * (h + 1) as f64
                + 8.0 * (2.0 * std::f64::consts::PI * ((300 + h) % period) as f64 / period as f64)
                    .sin();
            assert!((v - expect).abs() < 6.0, "h={h}: {v} vs {expect}");
        }
    }

    #[test]
    fn beats_seasonal_naive_on_trend_plus_season() {
        use crate::naive::SeasonalNaive;
        use rpas_traces::WindowDataset;
        let period = 24;
        let mut r = seeded(3);
        let series: Vec<f64> = (0..1200)
            .map(|t| {
                80.0 + 0.05 * t as f64
                    + 15.0 * (2.0 * std::f64::consts::PI * t as f64 / period as f64).sin()
                    + 1.0 * standard_normal(&mut r)
            })
            .collect();
        let (train, test) = series.split_at(800);
        let mut hw = HoltWinters::new(cfg(period));
        hw.fit(train).unwrap();
        let mut sn = SeasonalNaive::new(period);
        sn.fit(train).unwrap();
        // MSE of the level-mean forecast over the rolling grid.
        let mse = |m: &dyn Forecaster| {
            let grid = WindowDataset::rolling(test, 2 * period + 1, period);
            let (mut sum, mut n) = (0.0, 0);
            for (ctx, actual) in grid.iter() {
                let f = m.forecast_quantiles(ctx, period, &[0.1, 0.5, 0.9]).unwrap();
                for (p, a) in f.level_mean().iter().zip(actual) {
                    sum += (p - a) * (p - a);
                    n += 1;
                }
            }
            sum / n as f64
        };
        let (rh, rs) = (mse(&hw), mse(&sn));
        assert!(rh < rs, "hw {rh} vs sn {rs}");
    }

    #[test]
    fn intervals_widen_with_horizon() {
        let series = seasonal_series(400, 16, 2.0, 4);
        let mut m = HoltWinters::new(cfg(16));
        m.fit(&series).unwrap();
        let f = m.forecast_quantiles(&series, 32, &[0.1, 0.9]).unwrap();
        let w0 = f.at(0, 0.9) - f.at(0, 0.1);
        let w31 = f.at(31, 0.9) - f.at(31, 0.1);
        assert!(w31 > w0, "{w0} vs {w31}");
        assert!(f.is_monotone());
    }

    #[test]
    fn misuse_errors() {
        let m = HoltWinters::new(cfg(16));
        assert_eq!(
            m.forecast_quantiles(&seasonal_series(40, 16, 1.0, 5), 4, &[0.5]).unwrap_err(),
            ForecastError::NotFitted
        );
        let mut m = HoltWinters::new(cfg(16));
        assert!(matches!(
            m.fit(&[1.0; 20]).unwrap_err(),
            ForecastError::SeriesTooShort { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1)")]
    fn rejects_bad_alpha() {
        HoltWinters::new(HoltWintersConfig { alpha: 1.5, ..cfg(16) });
    }
}
