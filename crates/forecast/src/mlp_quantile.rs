//! Quantile-regression MLP: the "learn a pre-specified grid of quantiles"
//! methodology (§III-B, Fig. 3b) realised with the *simplest* architecture
//! — a feed-forward network whose head emits one value per (horizon step,
//! quantile level), trained with the summed pinball loss of Eq. 2.
//!
//! The paper names classical quantile regression as the baseline
//! implementation of quantile workload forecasting; this model is that
//! idea with a neural basis, and doubles as an ablation partner for the
//! TFT: same loss and output grid, no recurrence or attention. The
//! `forecasters` Criterion bench and the `ablation_grid` experiment
//! (`rpas-bench`'s `experiments ablation_grid`) compare them.

use crate::grid;
use crate::mlp::relu_mlp;
use crate::types::{validate_levels, ForecastError, Forecaster, QuantileForecast};
use crate::window::{self, ContextGuard};
use rpas_nn::{Adam, Layer, Mlp};
use rpas_obs::{catalog, Obs};
use rpas_traces::WindowDataset;
use rpas_tsmath::rng::{self, Rng64};
use rpas_tsmath::stats::Standardizer;

/// Quantile-regression MLP configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpQuantileConfig {
    /// Context length (steps).
    pub context: usize,
    /// Maximum forecast horizon (steps).
    pub horizon: usize,
    /// Hidden-layer widths.
    pub hidden: Vec<usize>,
    /// The trained quantile grid (strictly increasing, in `(0,1)`).
    pub quantiles: Vec<f64>,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Windows sampled per epoch.
    pub windows_per_epoch: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MlpQuantileConfig {
    fn default() -> Self {
        Self {
            context: 72,
            horizon: 72,
            hidden: vec![64, 64],
            quantiles: crate::EVAL_LEVELS.to_vec(),
            epochs: 40,
            lr: 1e-3,
            windows_per_epoch: 128,
            seed: 0,
        }
    }
}

/// Feed-forward quantile-grid forecaster.
pub struct MlpQuantile {
    cfg: MlpQuantileConfig,
    fitted: Option<(Mlp, Standardizer)>,
    obs: Obs,
}

impl MlpQuantile {
    /// New unfitted model.
    ///
    /// # Panics
    /// Panics on degenerate configs (empty/unsorted grid, zero sizes).
    pub fn new(cfg: MlpQuantileConfig) -> Self {
        assert!(cfg.context > 0 && cfg.horizon > 0, "degenerate window spec");
        grid::assert_valid(&cfg.quantiles);
        Self { cfg, fitted: None, obs: Obs::noop() }
    }

    /// Builder: attach an observability handle; `fit` then emits one
    /// `train.mlp-quantile/epoch` debug event per epoch (mean pinball
    /// loss, mean pre-clip gradient norm).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The untrained network, initialised from `r`.
    fn build_net(&self, r: &mut Rng64) -> Mlp {
        let c = &self.cfg;
        relu_mlp(c.context, &c.hidden, c.horizon * c.quantiles.len(), r)
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

impl Forecaster for MlpQuantile {
    fn name(&self) -> &'static str {
        "mlp-quantile"
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
                let out = net.forward(ctx);
                let _ = net.backward(&grid::pinball_step(&out, tgt, &c.quantiles, loss));
                let norm = net.clip_grad_norm(window::CLIP_NORM);
                opt.step_layer(&mut net);
                norm
            },
            |stats| self.obs.emit(catalog::TRAIN_MLP_QUANTILE_EPOCH, |e| stats.record(e)),
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
        grid::decode(self.name(), &out, scaler, &c.quantiles, horizon, levels)
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

    fn tiny_cfg() -> MlpQuantileConfig {
        MlpQuantileConfig {
            context: 12,
            horizon: 4,
            hidden: vec![24],
            quantiles: vec![0.1, 0.5, 0.9],
            epochs: 60,
            lr: 5e-3,
            windows_per_epoch: 32,
            seed: 7,
        }
    }

    fn sine_series(n: usize, noise: f64, seed: u64) -> Vec<f64> {
        let mut r = seeded(seed);
        (0..n)
            .map(|t| {
                90.0 + 18.0 * (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin()
                    + noise * standard_normal(&mut r)
            })
            .collect()
    }

    #[test]
    fn learns_sinusoid_median() {
        let series = sine_series(600, 1.0, 1);
        let mut m = MlpQuantile::new(tiny_cfg());
        m.fit(&series).unwrap();
        let med = m.forecast_quantiles(&series[300..312], 4, &[0.5]).unwrap().median();
        for (h, &v) in med.iter().enumerate() {
            let truth = 90.0 + 18.0 * (2.0 * std::f64::consts::PI * (312 + h) as f64 / 12.0).sin();
            assert!((v - truth).abs() < 8.0, "h={h}: {v} vs {truth}");
        }
    }

    #[test]
    fn pinball_training_spreads_quantiles() {
        let series = sine_series(600, 3.0, 2);
        let mut m = MlpQuantile::new(tiny_cfg());
        m.fit(&series).unwrap();
        let f = m.forecast_quantiles(&series[120..132], 4, &[0.1, 0.9]).unwrap();
        for h in 0..4 {
            let w = f.at(h, 0.9) - f.at(h, 0.1);
            assert!(w > 2.0, "no spread at h={h}: {w}");
            assert!(w < 60.0, "absurd spread at h={h}: {w}");
        }
    }

    #[test]
    fn off_grid_levels_interpolate() {
        let series = sine_series(400, 1.0, 3);
        let mut m = MlpQuantile::new(tiny_cfg());
        m.fit(&series).unwrap();
        let f = m.forecast_quantiles(&series[..12], 2, &[0.3]).unwrap();
        let g = m.forecast_quantiles(&series[..12], 2, &[0.1, 0.5, 0.9]).unwrap();
        for h in 0..2 {
            assert!(f.at(h, 0.3) >= g.at(h, 0.1) - 1e-9);
            assert!(f.at(h, 0.3) <= g.at(h, 0.5) + 1e-9);
        }
    }

    #[test]
    fn weight_roundtrip() {
        let series = sine_series(400, 1.0, 4);
        let mut m = MlpQuantile::new(tiny_cfg());
        m.fit(&series).unwrap();
        let snap = m.export_weights().unwrap();
        let mut m2 = MlpQuantile::new(tiny_cfg());
        m2.import_weights(&snap).unwrap();
        assert_eq!(
            m.forecast_quantiles(&series[..12], 4, &[0.5]).unwrap(),
            m2.forecast_quantiles(&series[..12], 4, &[0.5]).unwrap()
        );
    }

    #[test]
    fn misuse_errors() {
        let m = MlpQuantile::new(tiny_cfg());
        assert_eq!(
            m.forecast_quantiles(&[0.0; 12], 2, &[0.5]).unwrap_err(),
            ForecastError::NotFitted
        );
        let mut m = MlpQuantile::new(tiny_cfg());
        assert!(m.fit(&[1.0; 10]).is_err());
    }
}
