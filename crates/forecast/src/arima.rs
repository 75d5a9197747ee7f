//! ARIMA(p, d, q) fitted with the Hannan–Rissanen two-stage least-squares
//! procedure; quantile forecasts via psi-weight–propagated residual
//! variance (the classic "incorporating residuals to capture the
//! uncertainty of the forecasts" baseline of §IV-A).

use crate::types::{require_len, validate_levels, ForecastError, Forecaster, QuantileForecast};
use crate::window::{require_finite, require_series};
use rpas_tsmath::{stats, Matrix};

/// ARIMA order configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArimaConfig {
    /// Autoregressive order.
    pub p: usize,
    /// Differencing order (0 or 1 supported).
    pub d: usize,
    /// Moving-average order.
    pub q: usize,
}

impl Default for ArimaConfig {
    fn default() -> Self {
        Self { p: 5, d: 1, q: 1 }
    }
}

/// Fitted ARIMA model.
#[derive(Debug, Clone)]
pub struct Arima {
    cfg: ArimaConfig,
    fitted: Option<FittedArima>,
}

#[derive(Debug, Clone)]
struct FittedArima {
    phi: Vec<f64>,
    theta: Vec<f64>,
    mean: f64,
    sigma2: f64,
    /// Marginal variance of the (differenced, centered) training series —
    /// the theoretical ceiling of the h-step forecast variance for a
    /// stationary ARMA. Caps the psi-weight recursion when a near- or
    /// super-unit-root fit would otherwise explode it.
    marginal_var: f64,
}

impl Arima {
    /// New unfitted ARIMA with the given orders.
    ///
    /// # Panics
    /// Panics if `d > 1` or `p + q == 0`.
    pub fn new(cfg: ArimaConfig) -> Self {
        assert!(cfg.d <= 1, "only d in {{0, 1}} is supported");
        assert!(cfg.p + cfg.q > 0, "need at least one AR or MA term");
        Self { cfg, fitted: None }
    }

    /// Fitted AR coefficients (empty until fitted).
    pub fn phi(&self) -> &[f64] {
        self.fitted.as_ref().map_or(&[], |f| &f.phi)
    }

    /// Fitted MA coefficients (empty until fitted).
    pub fn theta(&self) -> &[f64] {
        self.fitted.as_ref().map_or(&[], |f| &f.theta)
    }

    /// Innovation variance estimate.
    pub fn sigma2(&self) -> Option<f64> {
        self.fitted.as_ref().map(|f| f.sigma2)
    }

    /// Spectral radius of the companion matrix of a lag polynomial,
    /// estimated by norm-growth power iteration.
    fn companion_radius(coeffs: &[f64]) -> f64 {
        let k = coeffs.len();
        if k == 0 {
            return 0.0;
        }
        if k == 1 {
            return coeffs[0].abs();
        }
        let mut x = vec![1.0; k];
        let mut prev_norm = (k as f64).sqrt();
        let mut radius: f64 = 0.0;
        for it in 0..100 {
            // Companion step: y0 = Σ c_i x_i; y_i = x_{i−1}.
            let y0: f64 = coeffs.iter().zip(&x).map(|(c, v)| c * v).sum();
            for i in (1..k).rev() {
                x[i] = x[i - 1];
            }
            x[0] = y0;
            let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
            // division guard: only an exactly-zero norm divides by zero below; tiny norms are valid
            if norm == 0.0 {
                return 0.0;
            }
            if it >= 50 {
                radius = radius.max(norm / prev_norm);
            }
            // Renormalise to avoid overflow.
            for v in &mut x {
                *v /= norm;
            }
            prev_norm = 1.0;
        }
        radius
    }

    fn min_context(&self) -> usize {
        self.cfg.d + self.cfg.p.max(self.cfg.q) + 2
    }

    /// Run the ARMA recursion over a centered differenced series,
    /// returning the one-step residuals (zeros for unavailable lags).
    fn residuals(f: &FittedArima, z: &[f64]) -> Vec<f64> {
        let mut e = vec![0.0; z.len()];
        for t in 0..z.len() {
            let mut pred = 0.0;
            for (i, &ph) in f.phi.iter().enumerate() {
                if t > i {
                    pred += ph * z[t - 1 - i];
                }
            }
            for (j, &th) in f.theta.iter().enumerate() {
                if t > j {
                    pred += th * e[t - 1 - j];
                }
            }
            e[t] = z[t] - pred;
        }
        e
    }

    /// Psi weights ψ_0..ψ_{h−1} of the ARMA part.
    fn psi_weights(f: &FittedArima, h: usize) -> Vec<f64> {
        let mut psi = vec![0.0; h];
        if h == 0 {
            return psi;
        }
        psi[0] = 1.0;
        for j in 1..h {
            let mut v = if j <= f.theta.len() { f.theta[j - 1] } else { 0.0 };
            for (i, &ph) in f.phi.iter().enumerate() {
                if j > i {
                    v += ph * psi[j - 1 - i];
                }
            }
            psi[j] = v;
        }
        psi
    }
}

/// Shrink a lag polynomial until its companion spectral radius is < 0.99:
/// scaling `c_i ← c_i λ^i` scales every root's magnitude by `λ`.
fn stabilize(coeffs: &[f64]) -> Vec<f64> {
    let mut c = coeffs.to_vec();
    for _ in 0..8 {
        let rho = Arima::companion_radius(&c);
        if rho < 0.99 {
            break;
        }
        let lambda = 0.97 / rho;
        let mut scale = 1.0;
        for ci in &mut c {
            scale *= lambda;
            *ci *= scale;
        }
    }
    c
}

impl Forecaster for Arima {
    fn name(&self) -> &'static str {
        "arima"
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ForecastError> {
        let (p, d, q) = (self.cfg.p, self.cfg.d, self.cfg.q);
        let m = (p + q).max(10); // stage-1 long-AR order
        require_series(self.name(), series, d + m + p.max(q) + 20)?;

        let w = stats::difference(series, d);
        let mean = stats::mean(&w);
        let z: Vec<f64> = w.iter().map(|v| v - mean).collect();

        // Stage 1: long AR(m) by least squares to estimate innovations.
        let n1 = z.len() - m;
        let mut x1 = Matrix::zeros(n1, m);
        let mut y1 = vec![0.0; n1];
        for t in 0..n1 {
            for i in 0..m {
                x1[(t, i)] = z[t + m - 1 - i];
            }
            y1[t] = z[t + m];
        }
        let a = x1
            .least_squares(&y1, 1e-8)
            .ok_or_else(|| ForecastError::InvalidConfig("singular stage-1 regression".into()))?;
        let mut e = vec![0.0; z.len()];
        for t in m..z.len() {
            let mut pred = 0.0;
            for (i, &ai) in a.iter().enumerate() {
                pred += ai * z[t - 1 - i];
            }
            e[t] = z[t] - pred;
        }

        // Stage 2: regress z_t on its own lags and lagged innovations.
        let start = m + p.max(q);
        let n2 = z.len() - start;
        let mut x2 = Matrix::zeros(n2, p + q);
        let mut y2 = vec![0.0; n2];
        for t in 0..n2 {
            let tt = t + start;
            for i in 0..p {
                x2[(t, i)] = z[tt - 1 - i];
            }
            for j in 0..q {
                x2[(t, p + j)] = e[tt - 1 - j];
            }
            y2[t] = z[tt];
        }
        let beta = x2
            .least_squares(&y2, 1e-8)
            .ok_or_else(|| ForecastError::InvalidConfig("singular stage-2 regression".into()))?;
        // Least squares does not constrain the lag polynomials; shrink any
        // explosive fit back inside the unit circle so iterated forecasts
        // cannot diverge (stationarity for phi, invertibility for theta).
        let phi = stabilize(&beta[..p]);
        let theta = stabilize(&beta[p..]);

        // Innovation variance from stage-2 residuals.
        let mut ss = 0.0;
        for (t, &yt) in y2.iter().enumerate() {
            let mut pred = 0.0;
            for (i, v) in x2.row(t).iter().enumerate() {
                pred += beta[i] * v;
            }
            let r = yt - pred;
            ss += r * r;
        }
        let sigma2 = (ss / n2 as f64).max(1e-12);
        let marginal_var = stats::variance(&z).max(sigma2);

        self.fitted = Some(FittedArima { phi, theta, mean, sigma2, marginal_var });
        Ok(())
    }

    #[expect(clippy::expect_used, reason = "require_len above keeps every differenced context non-empty")]
    fn forecast_quantiles(
        &self,
        context: &[f64],
        horizon: usize,
        levels: &[f64],
    ) -> Result<QuantileForecast, ForecastError> {
        validate_levels(levels)?;
        let f = self.fitted.as_ref().ok_or(ForecastError::NotFitted)?;
        require_len(context, self.min_context())?;
        require_finite(self.name(), "value in context", context)?;
        let d = self.cfg.d;

        let w = stats::difference(context, d);
        let mut z: Vec<f64> = w.iter().map(|v| v - f.mean).collect();
        let mut e = Self::residuals(f, &z);
        let n = z.len();
        z.reserve(horizon);
        e.reserve(horizon);

        // Iterated point forecasts on the differenced, centered scale.
        for h in 0..horizon {
            let t = n + h;
            let mut pred = 0.0;
            for (i, &ph) in f.phi.iter().enumerate() {
                if t > i {
                    pred += ph * z[t - 1 - i];
                }
            }
            for (j, &th) in f.theta.iter().enumerate() {
                if t > j && t - 1 - j < n {
                    pred += th * e[t - 1 - j];
                }
            }
            z.push(pred);
            e.push(0.0);
        }

        // Undifference the point path.
        let diffs: Vec<f64> = z[n..].iter().map(|v| v + f.mean).collect();
        let heads: Vec<f64> = (0..d)
            .map(|j| {
                *stats::difference(context, j)
                    .last()
                    .expect("context length was checked against d at the top of forecast")
            })
            .collect();
        let point = if d == 0 { diffs.clone() } else { stats::undifference(&diffs, &heads) };

        // Forecast standard deviations via psi weights (cumulated once per
        // differencing order).
        let mut psi = Self::psi_weights(f, horizon);
        for _ in 0..d {
            for j in 1..psi.len() {
                psi[j] += psi[j - 1];
            }
        }
        let mut cum = 0.0;
        QuantileForecast::gaussian(levels, horizon, |h| {
            cum += psi[h] * psi[h];
            // Stationarity cap: a stationary ARMA's forecast variance is
            // bounded by the marginal variance (scaled by (h+1) per order
            // of integration for the random-walk-like d ≥ 1 case); without
            // this, an estimated root on or outside the unit circle makes
            // the psi recursion explode over long horizons.
            let cap = f.marginal_var * ((h + 1) as f64).powi(d as i32);
            (point[h], (f.sigma2 * cum).min(cap).sqrt())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_tsmath::rng::{seeded, standard_normal};

    /// Simulate an AR(1) series with coefficient `phi`.
    fn ar1(phi: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut r = seeded(seed);
        let mut x = vec![0.0; n];
        for t in 1..n {
            x[t] = phi * x[t - 1] + standard_normal(&mut r);
        }
        x
    }

    #[test]
    fn recovers_ar1_coefficient() {
        let series = ar1(0.8, 3000, 1);
        let mut m = Arima::new(ArimaConfig { p: 1, d: 0, q: 0 });
        m.fit(&series).unwrap();
        assert!((m.phi()[0] - 0.8).abs() < 0.05, "phi {:?}", m.phi());
        assert!((m.sigma2().unwrap() - 1.0).abs() < 0.1);
    }

    #[test]
    fn recovers_ma1_coefficient_roughly() {
        // x_t = ε_t + 0.6 ε_{t−1}.
        let mut r = seeded(2);
        let mut eps = vec![0.0; 4001];
        for e in eps.iter_mut() {
            *e = standard_normal(&mut r);
        }
        let series: Vec<f64> = (1..=4000).map(|t| eps[t] + 0.6 * eps[t - 1]).collect();
        let mut m = Arima::new(ArimaConfig { p: 0, d: 0, q: 1 });
        m.fit(&series).unwrap();
        assert!((m.theta()[0] - 0.6).abs() < 0.1, "theta {:?}", m.theta());
    }

    #[test]
    fn forecast_decays_to_mean_for_ar1() {
        let series = ar1(0.7, 2000, 3);
        let mut m = Arima::new(ArimaConfig { p: 1, d: 0, q: 0 });
        m.fit(&series).unwrap();
        // Start far from the mean: forecasts must decay geometrically.
        let mut ctx = series[..100].to_vec();
        let last = 10.0;
        ctx.push(last);
        let f = m.forecast_quantiles(&ctx, 5, &[0.5]).unwrap().median();
        for h in 1..5 {
            assert!(f[h].abs() < f[h - 1].abs(), "not decaying: {f:?}");
        }
        assert!((f[0] - 0.7 * last).abs() < 1.0);
    }

    #[test]
    fn intervals_widen_with_horizon() {
        let series = ar1(0.5, 1500, 4);
        let mut m = Arima::new(ArimaConfig { p: 1, d: 0, q: 0 });
        m.fit(&series).unwrap();
        let f = m.forecast_quantiles(&series[..100], 10, &[0.1, 0.9]).unwrap();
        let w_first = f.at(0, 0.9) - f.at(0, 0.1);
        let w_last = f.at(9, 0.9) - f.at(9, 0.1);
        assert!(w_last > w_first);
        // For AR(1) with φ=0.5 the variance converges; width stays bounded.
        assert!(w_last < w_first * 3.0);
    }

    #[test]
    fn d1_tracks_linear_trend() {
        // Pure trend + small noise: ARIMA(1,1,0) forecasts keep climbing.
        let mut r = seeded(5);
        let series: Vec<f64> =
            (0..500).map(|t| 2.0 * t as f64 + 0.1 * standard_normal(&mut r)).collect();
        let mut m = Arima::new(ArimaConfig { p: 1, d: 1, q: 0 });
        m.fit(&series).unwrap();
        let f = m.forecast_quantiles(&series[..200], 5, &[0.5]).unwrap().median();
        let last = series[199];
        for (h, v) in f.iter().enumerate() {
            let expect = last + 2.0 * (h + 1) as f64;
            assert!((v - expect).abs() < 1.5, "h={h}: {v} vs {expect}");
        }
    }

    #[test]
    fn too_short_series_rejected() {
        let mut m = Arima::new(ArimaConfig::default());
        assert!(matches!(
            m.fit(&[1.0; 10]).unwrap_err(),
            ForecastError::SeriesTooShort { .. }
        ));
    }

    #[test]
    fn unfitted_forecast_rejected() {
        let m = Arima::new(ArimaConfig::default());
        assert_eq!(
            m.forecast_quantiles(&[1.0; 50], 3, &[0.5]).unwrap_err(),
            ForecastError::NotFitted
        );
    }

    #[test]
    fn stabilize_shrinks_explosive_polynomials() {
        // AR(1) with phi = 1.2 is explosive; stabilized must be < 1.
        let c = stabilize(&[1.2]);
        assert!(c[0] < 1.0, "{c:?}");
        // A stationary polynomial passes through untouched.
        let c = stabilize(&[0.5, 0.2]);
        assert_eq!(c, vec![0.5, 0.2]);
        // Explosive AR(2).
        let c = stabilize(&[1.5, 0.3]);
        assert!(Arima::companion_radius(&c) < 1.0, "{c:?}");
    }

    #[test]
    fn companion_radius_known_values() {
        // AR(1): radius = |phi|.
        assert!((Arima::companion_radius(&[0.8]) - 0.8).abs() < 1e-9);
        // AR(2) x_t = 1.5x_{t-1} - 0.56x_{t-2}: roots 0.7, 0.8.
        let r = Arima::companion_radius(&[1.5, -0.56]);
        assert!((r - 0.8).abs() < 0.02, "radius {r}");
    }

    #[test]
    fn psi_weights_ar1_geometric() {
        let f = FittedArima { phi: vec![0.5], theta: vec![], mean: 0.0, sigma2: 1.0, marginal_var: 10.0 };
        let psi = Arima::psi_weights(&f, 5);
        for (j, &p) in psi.iter().enumerate() {
            assert!((p - 0.5f64.powi(j as i32)).abs() < 1e-12);
        }
    }
}
