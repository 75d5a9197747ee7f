//! Reference forecasters: last-value and seasonal-naive. These exist as
//! sanity baselines for tests and as floor models in the evaluation — any
//! learned model that cannot beat them is broken.

use crate::types::{
    validate_levels, ForecastError, Forecaster, PointForecaster, QuantileForecast,
};
use crate::window::require_series;
use rpas_obs::{catalog, Obs};
use rpas_tsmath::stats::{self, RunningMoments};

/// Repeats the last observed value; quantiles widen with horizon using the
/// random-walk `σ√h` law estimated from one-step differences.
#[derive(Debug, Clone, Default)]
pub struct LastValue {
    sigma1: Option<f64>,
}

impl LastValue {
    /// New unfitted model.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Forecaster for LastValue {
    fn name(&self) -> &'static str {
        "last-value"
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ForecastError> {
        require_series(Forecaster::name(self), series, 3)?;
        let diffs = stats::difference(series, 1);
        self.sigma1 = Some(stats::std_dev(&diffs).max(1e-9));
        Ok(())
    }

    fn forecast_quantiles(
        &self,
        context: &[f64],
        horizon: usize,
        levels: &[f64],
    ) -> Result<QuantileForecast, ForecastError> {
        validate_levels(levels)?;
        let sigma1 = self.sigma1.ok_or(ForecastError::NotFitted)?;
        let last = *context.last().ok_or(ForecastError::SeriesTooShort { needed: 1, got: 0 })?;
        QuantileForecast::gaussian(levels, horizon, |h| (last, sigma1 * ((h + 1) as f64).sqrt()))
    }
}

impl PointForecaster for LastValue {
    fn name(&self) -> &'static str {
        "last-value"
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ForecastError> {
        Forecaster::fit(self, series)
    }

    fn forecast(&self, context: &[f64], horizon: usize) -> Result<Vec<f64>, ForecastError> {
        let last = *context.last().ok_or(ForecastError::SeriesTooShort { needed: 1, got: 0 })?;
        Ok(vec![last; horizon])
    }
}

/// Repeats the value one season ago (`period` steps); quantiles from the
/// seasonal-difference residual spread.
///
/// **Degraded-input behavior** (this model anchors the resilience
/// fallback chain in `rpas-core`, so it must not fail on thin data):
/// fitting on fewer than two full seasons estimates the spread from
/// one-step differences instead of seasonal residuals, and forecasting
/// from a context shorter than one period returns a *flat* forecast from
/// the last observed value. Both paths emit a `forecast/*` warn through
/// the attached [`Obs`] handle instead of erroring.
#[derive(Debug, Clone)]
pub struct SeasonalNaive {
    period: usize,
    sigma: Option<f64>,
    obs: Obs,
}

impl SeasonalNaive {
    /// New seasonal-naive model with the given season length in steps
    /// (e.g. 144 for daily seasonality at 10-minute sampling).
    ///
    /// # Panics
    /// Panics if `period == 0`.
    pub fn new(period: usize) -> Self {
        assert!(period > 0, "seasonal period must be positive");
        Self { period, sigma: None, obs: Obs::noop() }
    }

    /// Builder: attach an observability handle; the degraded fit and
    /// flat-forecast paths then emit `forecast/*` warn events.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The fitted residual spread (`None` before [`Forecaster::fit`]).
    pub fn sigma(&self) -> Option<f64> {
        self.sigma
    }
}

impl Forecaster for SeasonalNaive {
    fn name(&self) -> &'static str {
        "seasonal-naive"
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ForecastError> {
        require_series(self.name(), series, 2)?;
        let mut resid = RunningMoments::new();
        if series.len() < 2 * self.period {
            // Not enough history for seasonal residuals: estimate the
            // spread from one-step differences so the model still fits.
            self.obs.emit(catalog::FORECAST_SHORT_HISTORY_SIGMA, |e| {
                e.field("model", "seasonal-naive")
                    .field("period", self.period as u64)
                    .field("got", series.len() as u64)
                    .field("needed", (2 * self.period) as u64);
            });
            for w in series.windows(2) {
                resid.push(w[1] - w[0]);
            }
        } else {
            for t in self.period..series.len() {
                resid.push(series[t] - series[t - self.period]);
            }
        }
        let sigma = if resid.count() < 2 { 0.0 } else { resid.std_dev() };
        self.sigma = Some(if sigma.is_finite() { sigma.max(1e-9) } else { 1e-9 });
        Ok(())
    }

    fn forecast_quantiles(
        &self,
        context: &[f64],
        horizon: usize,
        levels: &[f64],
    ) -> Result<QuantileForecast, ForecastError> {
        validate_levels(levels)?;
        let sigma = self.sigma.ok_or(ForecastError::NotFitted)?;
        if context.len() < self.period {
            // Degraded context: flat forecast from the last observation,
            // keeping the fitted quantile spread. Needed by the fallback
            // chain, where the visible history can shrink below a period
            // under metric dropouts.
            let last =
                *context.last().ok_or(ForecastError::SeriesTooShort { needed: 1, got: 0 })?;
            self.obs.emit(catalog::FORECAST_FLAT_FALLBACK, |e| {
                e.field("model", "seasonal-naive")
                    .field("period", self.period as u64)
                    .field("context", context.len() as u64)
                    .field("last", last);
            });
            return QuantileForecast::gaussian(levels, horizon, |_| (last, sigma));
        }
        let season = &context[context.len() - self.period..];
        QuantileForecast::gaussian(levels, horizon, |h| (season[h % self.period], sigma))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_value_point_forecast() {
        let mut m = LastValue::new();
        PointForecaster::fit(&mut m, &[1.0, 2.0, 3.0]).expect("fit succeeds on a non-empty series");
        assert_eq!(
            m.forecast(&[5.0, 7.0], 3).expect("fitted model forecasts from a non-empty context"),
            vec![7.0, 7.0, 7.0]
        );
    }

    #[test]
    fn last_value_intervals_widen_with_horizon() {
        let mut m = LastValue::new();
        Forecaster::fit(&mut m, &[0.0, 1.0, 0.0, 1.0, 0.0, 1.0]).expect("fit succeeds on a non-empty series");
        let f = m
            .forecast_quantiles(&[1.0], 4, &[0.1, 0.9])
            .expect("fitted model forecasts from a non-empty context");
        let w1 = f.at(0, 0.9) - f.at(0, 0.1);
        let w4 = f.at(3, 0.9) - f.at(3, 0.1);
        assert!(w4 > w1 * 1.5, "w1={w1} w4={w4}");
        // Median equals the last value.
        assert!((f.at(0, 0.5) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unfitted_errors() {
        let m = LastValue::new();
        assert_eq!(
            m.forecast_quantiles(&[1.0], 1, &[0.5]).unwrap_err(),
            ForecastError::NotFitted
        );
    }

    #[test]
    fn seasonal_naive_repeats_period() {
        let period = 4;
        let mut m = SeasonalNaive::new(period);
        // Two exact seasons of [10, 20, 30, 40].
        let series: Vec<f64> = (0..8).map(|i| (10 * (i % 4 + 1)) as f64).collect();
        Forecaster::fit(&mut m, &series).expect("two full seasons are enough to fit");
        let f = m
            .forecast_quantiles(&series[4..], 6, &[0.5])
            .expect("one full season of context is enough to forecast");
        let med = f.median();
        assert_eq!(med[..4], [10.0, 20.0, 30.0, 40.0]);
        assert_eq!(med[4], 10.0);
    }

    #[test]
    fn seasonal_naive_short_context_yields_flat_forecast() {
        // A context shorter than one period no longer errors: the model
        // degrades to a flat forecast from the last value (the resilience
        // fallback chain depends on this).
        let mem = rpas_obs::MemorySink::new();
        let mut m =
            SeasonalNaive::new(4).with_obs(Obs::with_sink(Box::new(mem.clone())));
        Forecaster::fit(&mut m, &[1.0; 8]).expect("two full seasons are enough to fit");
        let f = m
            .forecast_quantiles(&[1.0, 2.0], 3, &[0.5])
            .expect("short context degrades to a flat forecast instead of erroring");
        assert_eq!(f.median(), vec![2.0, 2.0, 2.0]);
        let warn = mem
            .events()
            .into_iter()
            .find(|e| e.is(catalog::FORECAST_FLAT_FALLBACK))
            .expect("flat-fallback warn event");
        assert_eq!(warn.level(), rpas_obs::Level::Warn);
        // A fully empty context still has nothing to anchor on.
        assert!(matches!(
            m.forecast_quantiles(&[], 1, &[0.5]).unwrap_err(),
            ForecastError::SeriesTooShort { needed: 1, got: 0 }
        ));
    }

    #[test]
    fn seasonal_naive_fit_degrades_below_two_seasons() {
        // Fewer than two full seasons: the fit succeeds on a one-step
        // difference spread (with a warn) instead of erroring.
        let mem = rpas_obs::MemorySink::new();
        let mut m =
            SeasonalNaive::new(10).with_obs(Obs::with_sink(Box::new(mem.clone())));
        assert!(Forecaster::fit(&mut m, &[1.0; 15]).is_ok());
        assert!(mem.events().iter().any(|e| e.is(catalog::FORECAST_SHORT_HISTORY_SIGMA)));
        // Two samples is the true floor; one is not fittable.
        assert!(Forecaster::fit(&mut m, &[1.0]).is_err());
        assert!(Forecaster::fit(&mut m, &[1.0, 2.0]).is_ok());
        // Full history never takes the degraded path.
        let mem2 = rpas_obs::MemorySink::new();
        let mut full =
            SeasonalNaive::new(10).with_obs(Obs::with_sink(Box::new(mem2.clone())));
        assert!(Forecaster::fit(&mut full, &[1.0; 20]).is_ok());
        assert!(mem2.events().is_empty());
    }

    #[test]
    fn seasonal_naive_flat_forecast_quantiles_stay_ordered() {
        let mut m = SeasonalNaive::new(6);
        Forecaster::fit(&mut m, &[5.0, 9.0, 4.0, 8.0, 5.0, 9.0, 4.0, 8.0]).expect("two full seasons are enough to fit");
        let f = m
            .forecast_quantiles(&[7.0], 4, &[0.1, 0.5, 0.9])
            .expect("short context degrades to a flat forecast instead of erroring");
        assert!(f.is_monotone());
        assert!((f.at(0, 0.5) - 7.0).abs() < 1e-9);
        assert!(f.at(0, 0.9) > f.at(0, 0.1));
        assert!(f.values().row(0).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn quantiles_ordered() {
        let mut m = LastValue::new();
        Forecaster::fit(&mut m, &[5.0, 6.0, 4.0, 7.0]).expect("fit succeeds on a non-empty series");
        let f = m
            .forecast_quantiles(&[5.0], 3, &[0.1, 0.5, 0.9])
            .expect("fitted model forecasts from a non-empty context");
        assert!(f.is_monotone());
        assert!(f.at(0, 0.1) < f.at(0, 0.9));
    }
}
