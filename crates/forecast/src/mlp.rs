//! Feed-forward probabilistic forecaster: a direct multi-horizon MLP whose
//! output layer emits distribution parameters per future step ("learn
//! parametric distributions", Fig. 3a of the paper).
//!
//! The network maps a standardized context window to `(μ_h, σ_h^raw)` — or
//! `(μ_h, σ_h^raw, ν_h^raw)` for a Student-t head — for every horizon step
//! `h`, and trains by minimising the negative log-likelihood. Quantiles are
//! then read analytically from the learned distribution, which is what
//! gives this family its flexibility in choosing quantile levels after
//! training (§III-B "Pros, Cons & Selection Criteria").

use crate::types::{validate_levels, ForecastError, Forecaster, QuantileForecast};
use crate::window::{self, ContextGuard};
use rpas_nn::loss::{gaussian_nll, student_t_nll, NU_OFFSET, SIGMA_FLOOR};
use rpas_nn::{Activation, Adam, Layer, Mlp};
use rpas_obs::{catalog, Obs};
use rpas_traces::WindowDataset;
use rpas_tsmath::rng::{self, Rng64};
use rpas_tsmath::special::softplus;
use rpas_tsmath::stats::Standardizer;
use rpas_tsmath::{Distribution, Matrix, Normal, StudentT};

/// Which parametric family the output head emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistKind {
    /// Gaussian `(μ, σ)` head.
    Gaussian,
    /// Student-t `(μ, σ, ν)` head — the paper's choice for its longer
    /// tails ("better handle outliers and noise", §III-B).
    StudentT,
}

/// MLP forecaster configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpProbConfig {
    /// Input context length (steps).
    pub context: usize,
    /// Maximum forecast horizon (steps); the head is sized for this.
    pub horizon: usize,
    /// Hidden-layer widths.
    pub hidden: Vec<usize>,
    /// Output distribution family.
    pub dist: DistKind,
    /// Training epochs over the window dataset.
    pub epochs: usize,
    /// Adam learning rate (the paper fixes 1e-3).
    pub lr: f64,
    /// Windows sampled per epoch (bounds training cost on long traces).
    pub windows_per_epoch: usize,
    /// RNG seed for init and window sampling.
    pub seed: u64,
}

impl Default for MlpProbConfig {
    fn default() -> Self {
        Self {
            context: 72,
            horizon: 72,
            hidden: vec![64, 64],
            dist: DistKind::StudentT,
            epochs: 30,
            lr: 1e-3,
            windows_per_epoch: 128,
            seed: 0,
        }
    }
}

/// The body of both feed-forward forecasters: `context` inputs, ReLU hidden
/// layers, `outputs` head values, initialised from `r`.
pub(crate) fn relu_mlp(context: usize, hidden: &[usize], outputs: usize, r: &mut Rng64) -> Mlp {
    let mut widths = vec![context];
    widths.extend_from_slice(hidden);
    widths.push(outputs);
    Mlp::new(&widths, Activation::Relu, r)
}

/// Feed-forward probabilistic forecaster.
pub struct MlpProb {
    cfg: MlpProbConfig,
    params_per_step: usize,
    fitted: Option<(Mlp, Standardizer)>,
    obs: Obs,
}

impl MlpProb {
    /// New unfitted model.
    ///
    /// # Panics
    /// Panics on degenerate config (zero context/horizon/epochs).
    pub fn new(cfg: MlpProbConfig) -> Self {
        assert!(cfg.context > 0 && cfg.horizon > 0, "degenerate window spec");
        assert!(cfg.epochs > 0 && cfg.windows_per_epoch > 0, "degenerate training spec");
        let params_per_step = match cfg.dist {
            DistKind::Gaussian => 2,
            DistKind::StudentT => 3,
        };
        Self { cfg, params_per_step, fitted: None, obs: Obs::noop() }
    }

    /// Builder: attach an observability handle; `fit` then emits one
    /// `train.mlp/epoch` debug event per epoch (mean NLL loss, mean
    /// pre-clip gradient norm).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Forward `ctx`, add the mean per-step NLL of `tgt` under the head's
    /// distributions into `loss`, and back-propagate it through `net`
    /// (gradients accumulate there). Returns `d loss / d ctx`.
    fn nll_pass(&self, net: &mut Mlp, ctx: &[f64], tgt: &[f64], loss: &mut f64) -> Vec<f64> {
        let k = self.params_per_step;
        let steps = self.cfg.horizon as f64;
        let out = net.forward(ctx);
        let mut dout = vec![0.0; out.len()];
        for (h, &y) in tgt.iter().enumerate() {
            let o = &out[h * k..(h + 1) * k];
            let (l, grad) = match self.cfg.dist {
                DistKind::Gaussian => {
                    let (l, dmu, dsr) = gaussian_nll(o[0], o[1], y);
                    (l, [dmu, dsr, 0.0])
                }
                DistKind::StudentT => {
                    let (l, dmu, dsr, dnr) = student_t_nll(o[0], o[1], o[2], y);
                    (l, [dmu, dsr, dnr])
                }
            };
            *loss += l / steps;
            for (d, g) in dout[h * k..(h + 1) * k].iter_mut().zip(grad) {
                *d = g / steps;
            }
        }
        net.backward(&dout)
    }

    /// The untrained network, initialised from `r`.
    fn build_net(&self, r: &mut Rng64) -> Mlp {
        let c = &self.cfg;
        relu_mlp(c.context, &c.hidden, c.horizon * self.params_per_step, r)
    }

    /// Restore a snapshot taken by [`Forecaster::export_weights`]; the model
    /// is then ready to forecast without calling `fit`.
    ///
    /// # Errors
    /// Fails when the snapshot does not match this config's architecture.
    pub fn import_weights(&mut self, data: &[u8]) -> Result<(), ForecastError> {
        let mut net = self.build_net(&mut rng::seeded(self.cfg.seed));
        let scaler = window::restore_scaled(&mut [&mut net], data)?;
        self.fitted = Some((net, scaler));
        Ok(())
    }
}

impl Forecaster for MlpProb {
    fn name(&self) -> &'static str {
        "mlp"
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ForecastError> {
        let c = &self.cfg;
        let (scaler, z) = window::standardize(self.name(), series, c.context, c.horizon)?;
        let ds = WindowDataset::new(&z, c.context, c.horizon);

        let mut r = rng::seeded(c.seed);
        let mut net = self.build_net(&mut r);
        let mut opt = Adam::new(c.lr);

        window::train(
            &ds,
            c.epochs,
            c.windows_per_epoch,
            &mut r,
            |ctx, tgt, loss| {
                let _ = self.nll_pass(&mut net, ctx, tgt, loss);
                let norm = net.clip_grad_norm(window::CLIP_NORM);
                opt.step_layer(&mut net);
                norm
            },
            |stats| self.obs.emit(catalog::TRAIN_MLP_EPOCH, |e| stats.record(e)),
        );

        self.fitted = Some((net, scaler));
        Ok(())
    }

    fn forecast_quantiles(
        &self,
        context: &[f64],
        horizon: usize,
        levels: &[f64],
    ) -> Result<QuantileForecast, ForecastError> {
        validate_levels(levels)?;
        let c = &self.cfg;
        let guard = ContextGuard::direct(self.name(), c.context, c.horizon);
        let ((net, scaler), ctx) = guard.admit(self.fitted.as_ref(), context, horizon)?;
        let out = net.apply(&scaler.transform_vec(ctx));
        window::require_finite(self.name(), "head output", &out)?;

        let mut values = Matrix::zeros(horizon, levels.len());
        for (h, o) in out.chunks_exact(self.params_per_step).take(horizon).enumerate() {
            // The step's distribution over z-scores, on the stack.
            let (mu, sigma) = (o[0], softplus(o[1]) + SIGMA_FLOOR);
            let mut fill = |dist: &dyn Distribution| {
                for (i, &l) in levels.iter().enumerate() {
                    values[(h, i)] = scaler.inverse(dist.quantile(l));
                }
            };
            match self.cfg.dist {
                DistKind::Gaussian => fill(&Normal::new(mu, sigma)),
                DistKind::StudentT => fill(&StudentT::new(mu, sigma, NU_OFFSET + softplus(o[2]))),
            }
        }
        QuantileForecast::new(levels.to_vec(), values)
    }

    fn export_weights(&mut self) -> Option<Vec<u8>> {
        let (net, scaler) = self.fitted.as_mut()?;
        Some(window::snapshot(&mut [net], Some(*scaler)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_tsmath::rng::{seeded, standard_normal};

    fn tiny_cfg() -> MlpProbConfig {
        MlpProbConfig {
            context: 12,
            horizon: 4,
            hidden: vec![16],
            epochs: 60,
            lr: 5e-3,
            windows_per_epoch: 32,
            seed: 7,
            dist: DistKind::Gaussian,
        }
    }

    /// Noisy sinusoid, period 12.
    fn sine_series(n: usize, noise: f64, seed: u64) -> Vec<f64> {
        let mut r = seeded(seed);
        (0..n)
            .map(|t| {
                100.0
                    + 20.0 * (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin()
                    + noise * standard_normal(&mut r)
            })
            .collect()
    }

    #[test]
    fn learns_sinusoid_median() {
        let series = sine_series(600, 1.0, 1);
        let mut m = MlpProb::new(tiny_cfg());
        m.fit(&series).unwrap();
        // Forecast from a context ending mid-series; compare to the truth.
        let ctx = &series[300..312];
        let f = m.forecast_quantiles(ctx, 4, &[0.5]).unwrap();
        let med = f.median();
        for (h, &v) in med.iter().enumerate() {
            let truth = 100.0 + 20.0 * (2.0 * std::f64::consts::PI * (312 + h) as f64 / 12.0).sin();
            assert!((v - truth).abs() < 8.0, "h={h}: {v} vs {truth}");
        }
    }

    #[test]
    fn interval_covers_noise() {
        let series = sine_series(600, 3.0, 2);
        let mut m = MlpProb::new(tiny_cfg());
        m.fit(&series).unwrap();
        let f = m.forecast_quantiles(&series[288..300], 4, &[0.1, 0.9]).unwrap();
        // The 80% interval must have meaningful width (noise σ=3).
        for h in 0..4 {
            let w = f.at(h, 0.9) - f.at(h, 0.1);
            assert!(w > 2.0, "interval too narrow at h={h}: {w}");
            assert!(w < 60.0, "interval absurdly wide at h={h}: {w}");
        }
    }

    #[test]
    fn student_t_head_works() {
        let series = sine_series(400, 2.0, 3);
        let mut m = MlpProb::new(MlpProbConfig { dist: DistKind::StudentT, ..tiny_cfg() });
        m.fit(&series).unwrap();
        let f = m.forecast_quantiles(&series[..12], 4, &[0.1, 0.5, 0.9]).unwrap();
        assert!(f.is_monotone());
        assert!(f.median().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn whole_model_gradient_matches_finite_differences() {
        // Every parameter and the context through both heads' NLL and
        // their softplus links. Tanh hidden layers: ReLU is kinked at 0.
        let ctx = [0.4, -1.3, 0.9, 2.1];
        let tgt = [0.7, -0.6, 1.8];
        for dist in [DistKind::Gaussian, DistKind::StudentT] {
            let m = MlpProb::new(MlpProbConfig {
                context: ctx.len(),
                horizon: tgt.len(),
                dist,
                ..tiny_cfg()
            });
            let widths = [ctx.len(), 5, tgt.len() * m.params_per_step];
            let mut net = Mlp::new(&widths, Activation::Tanh, &mut seeded(9));
            let err = rpas_nn::gradcheck::check_layer(&mut net, &ctx, |net, ctx| {
                let mut loss = 0.0;
                let dx = m.nll_pass(net, ctx, &tgt, &mut loss);
                (loss, dx)
            });
            assert!(err < 1e-6, "{dist:?} head gradcheck err {err}");
        }
    }

    #[test]
    fn longer_context_is_truncated_from_the_left() {
        let series = sine_series(400, 1.0, 4);
        let mut m = MlpProb::new(tiny_cfg());
        m.fit(&series).unwrap();
        let f_full = m.forecast_quantiles(&series[..50], 2, &[0.5]).unwrap();
        let f_tail = m.forecast_quantiles(&series[38..50], 2, &[0.5]).unwrap();
        assert_eq!(f_full.median(), f_tail.median());
    }

    #[test]
    fn horizon_beyond_trained_is_rejected() {
        let series = sine_series(400, 1.0, 5);
        let mut m = MlpProb::new(tiny_cfg());
        m.fit(&series).unwrap();
        assert!(matches!(
            m.forecast_quantiles(&series[..12], 5, &[0.5]).unwrap_err(),
            ForecastError::HorizonTooLong { max: 4, requested: 5 }
        ));
    }

    #[test]
    fn unfitted_and_short_inputs_error() {
        let m = MlpProb::new(tiny_cfg());
        assert_eq!(
            m.forecast_quantiles(&[0.0; 12], 2, &[0.5]).unwrap_err(),
            ForecastError::NotFitted
        );
        let mut m = MlpProb::new(tiny_cfg());
        assert!(m.fit(&[1.0; 10]).is_err());
        m.fit(&sine_series(200, 1.0, 6)).unwrap();
        assert!(matches!(
            m.forecast_quantiles(&[1.0; 5], 2, &[0.5]).unwrap_err(),
            ForecastError::SeriesTooShort { .. }
        ));
    }
}
