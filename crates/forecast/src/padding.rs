//! CloudScale-style padding enhancement (Shen et al., SoCC 2011; reference
//! \[18\] in the paper): augment a point forecaster's predictions with "a small
//! additional value based on past under-estimation errors".
//!
//! The wrapper keeps a sliding window of recent per-step forecast errors;
//! the pad added to every future prediction is a high quantile of the
//! observed *under*-estimation errors (`max(actual − forecast, 0)`).

use crate::types::{ForecastError, PointForecaster};
use rpas_tsmath::stats;
use std::collections::VecDeque;

/// A point forecaster plus error-history padding.
pub struct PaddedForecaster<P: PointForecaster> {
    inner: P,
    name: &'static str,
    window: usize,
    pad_level: f64,
    errors: VecDeque<f64>,
}

impl<P: PointForecaster> PaddedForecaster<P> {
    /// Wrap `inner`, remembering the last `window` per-step errors and
    /// padding by the `pad_level` quantile of past under-estimations.
    ///
    /// # Panics
    /// Panics on `window == 0` or a pad level outside `(0, 1)`.
    pub fn new(inner: P, name: &'static str, window: usize, pad_level: f64) -> Self {
        assert!(window > 0, "padding window must be positive");
        assert!(pad_level > 0.0 && pad_level < 1.0, "pad level must be in (0,1)");
        Self { inner, name, window, pad_level, errors: VecDeque::with_capacity(window) }
    }

    /// Record realised errors after the fact: for each step, the
    /// under-estimation `max(actual − forecast, 0)` (zero when the
    /// forecast was high enough).
    pub(crate) fn observe(&mut self, actuals: &[f64], forecasts: &[f64]) {
        assert_eq!(actuals.len(), forecasts.len(), "observe: length mismatch");
        for (&a, &f) in actuals.iter().zip(forecasts) {
            if self.errors.len() == self.window {
                self.errors.pop_front();
            }
            self.errors.push_back((a - f).max(0.0));
        }
    }

    /// The pad currently applied to every forecast step.
    pub(crate) fn current_pad(&self) -> f64 {
        if self.errors.is_empty() {
            return 0.0;
        }
        let v: Vec<f64> = self.errors.iter().copied().collect();
        stats::quantile(&v, self.pad_level)
    }

    /// Number of stored error samples.
    pub fn history_len(&self) -> usize {
        self.errors.len()
    }
}

impl<P: PointForecaster> PointForecaster for PaddedForecaster<P> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ForecastError> {
        self.inner.fit(series)
    }

    fn forecast(&self, context: &[f64], horizon: usize) -> Result<Vec<f64>, ForecastError> {
        let pad = self.current_pad();
        Ok(self.inner.forecast(context, horizon)?.into_iter().map(|v| v + pad).collect())
    }

    fn observe_errors(&mut self, actuals: &[f64], forecasts: &[f64]) {
        self.observe(actuals, forecasts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::LastValue;

    fn padded() -> PaddedForecaster<LastValue> {
        let mut lv = LastValue::new();
        PointForecaster::fit(&mut lv, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        PaddedForecaster::new(lv, "last-value-padding", 10, 0.9)
    }

    #[test]
    fn no_history_means_no_pad() {
        let p = padded();
        assert_eq!(p.current_pad(), 0.0);
        assert_eq!(p.forecast(&[5.0], 2).unwrap(), vec![5.0, 5.0]);
    }

    #[test]
    fn pad_tracks_underestimation_quantile() {
        let mut p = padded();
        // Forecast 10 everywhere; actuals overshoot by 0..4.
        p.observe(&[10.0, 11.0, 12.0, 13.0, 14.0], &[10.0; 5]);
        let pad = p.current_pad();
        // 0.9-quantile of {0,1,2,3,4} (type-7) = 3.6.
        assert!((pad - 3.6).abs() < 1e-9, "pad {pad}");
        let f = p.forecast(&[5.0], 1).unwrap();
        assert!((f[0] - 8.6).abs() < 1e-9);
    }

    #[test]
    fn overestimation_contributes_zero() {
        let mut p = padded();
        p.observe(&[5.0, 5.0], &[100.0, 100.0]);
        assert_eq!(p.current_pad(), 0.0);
    }

    #[test]
    fn window_evicts_old_errors() {
        let mut lv = LastValue::new();
        PointForecaster::fit(&mut lv, &[1.0, 2.0, 3.0]).unwrap();
        let mut p = PaddedForecaster::new(lv, "t", 3, 0.5);
        p.observe(&[20.0, 20.0, 20.0], &[10.0; 3]); // errors 10,10,10
        assert!((p.current_pad() - 10.0).abs() < 1e-9);
        p.observe(&[10.0, 10.0, 10.0], &[10.0; 3]); // errors 0,0,0 evict all
        assert_eq!(p.current_pad(), 0.0);
        assert_eq!(p.history_len(), 3);
    }

    #[test]
    fn delegates_name_and_fit_errors() {
        let lv = LastValue::new();
        let mut p = PaddedForecaster::new(lv, "custom-name", 5, 0.5);
        assert_eq!(p.name(), "custom-name");
        assert!(PointForecaster::fit(&mut p, &[1.0]).is_err());
    }
}
