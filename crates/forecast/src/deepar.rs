//! DeepAR-style probabilistic forecaster (Salinas et al.): an
//! autoregressive GRU that emits Student-t parameters at every step, trained
//! with teacher forcing on the negative log-likelihood, and forecast by
//! ancestral sampling — Monte-Carlo paths whose empirical quantiles become
//! the quantile forecast.
//!
//! Two behaviours the paper leans on fall directly out of this design:
//!
//! * inference is comparatively **slow** (Table II) because quantiles need
//!   many sampled paths;
//! * accuracy **degrades with horizon** (Fig. 8) because multi-step
//!   forecasts are produced iteratively and errors accumulate.

use crate::types::{validate_levels, ForecastError, Forecaster, QuantileForecast};
use crate::window::{self, ContextGuard};
use rpas_nn::loss::{student_t_nll, NU_OFFSET, SIGMA_FLOOR};
use rpas_nn::{Adam, Dense, GruCell};
use rpas_obs::{catalog, Obs};
use rpas_traces::WindowDataset;
use rpas_tsmath::rng::{self, Rng64};
use rpas_tsmath::special::softplus;
use rpas_tsmath::stats;
use rpas_tsmath::{Distribution, Matrix, StudentT};

/// DeepAR configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DeepArConfig {
    /// Context length used at forecast time (steps).
    pub context: usize,
    /// Window length used during training (context + horizon is typical).
    pub train_window: usize,
    /// GRU hidden size.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Windows sampled per epoch.
    pub windows_per_epoch: usize,
    /// Monte-Carlo sample paths for quantile estimation.
    pub num_samples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DeepArConfig {
    fn default() -> Self {
        Self {
            context: 72,
            train_window: 144,
            hidden: 32,
            epochs: 20,
            lr: 1e-3,
            windows_per_epoch: 96,
            num_samples: 100,
            seed: 0,
        }
    }
}

/// DeepAR-style forecaster.
pub struct DeepAr {
    cfg: DeepArConfig,
    fitted: Option<(GruCell, Dense)>,
    obs: Obs,
}

/// Per-window affine scaling (GluonTS-style): each window is z-scored by
/// its *own* context mean and std, so the network sees level-free,
/// unit-variance inputs — this is what lets DeepAR track level shifts that
/// a global z-score cannot, without crushing the signal's dynamic range.
fn window_scale(context: &[f64]) -> (f64, f64) {
    let m = stats::mean(context);
    let sd = stats::std_dev(context);
    let sd = if sd.is_nan() || sd < 1e-6 { 1e-6 } else { sd };
    (m, sd)
}

/// One teacher-forced pass over a z-scored window: step `t` reads
/// `win[t − 1]` and is scored by the Student-t NLL of `win[t]`. Adds the
/// mean step loss into `loss` and accumulates the BPTT gradients in `gru`
/// and `head`.
fn teacher_forced(gru: &mut GruCell, head: &mut Dense, win: &[f64], loss: &mut f64) {
    let steps = win.len() - 1;
    let mut h = gru.init_state();
    let mut d_outs: Vec<[f64; 3]> = Vec::with_capacity(steps);
    for t in 1..win.len() {
        h = gru.forward(&[win[t - 1]], &h);
        let out = head.forward(&h);
        let (l, dmu, dsr, dnr) = student_t_nll(out[0], out[1], out[2], win[t]);
        let s = 1.0 / steps as f64;
        *loss += l * s;
        d_outs.push([dmu * s, dsr * s, dnr * s]);
    }

    // BPTT in reverse.
    let mut dh_next = vec![0.0; h.len()];
    for d in d_outs.iter().rev() {
        let mut dh = head.backward(&d[..]);
        for (a, b) in dh.iter_mut().zip(&dh_next) {
            *a += b;
        }
        let (_dx, dh_prev) = gru.backward(&dh);
        dh_next = dh_prev;
    }
}

impl DeepAr {
    /// New unfitted model.
    ///
    /// # Panics
    /// Panics on degenerate config.
    pub fn new(cfg: DeepArConfig) -> Self {
        assert!(cfg.context > 1 && cfg.train_window > 2, "degenerate window spec");
        assert!(cfg.hidden > 0 && cfg.num_samples > 0, "degenerate model spec");
        Self { cfg, fitted: None, obs: Obs::noop() }
    }

    /// Builder: attach an observability handle; `fit` then emits one
    /// `train.deepar/epoch` debug event per epoch (mean NLL loss, mean
    /// pre-clip gradient norm across GRU + head).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Student-t emitted by the head, or `Unhealthy` when the head output is
    /// not finite (diverged weights) — `StudentT::new` would panic on it.
    fn dist_from(out: &[f64; 3]) -> Result<StudentT, ForecastError> {
        window::require_finite("deepar", format_args!("head output {out:?}"), out)?;
        Ok(StudentT::new(out[0], softplus(out[1]) + SIGMA_FLOOR, NU_OFFSET + softplus(out[2])))
    }

    /// The untrained cell and head, initialised from `r`.
    fn build_net(&self, r: &mut Rng64) -> (GruCell, Dense) {
        (GruCell::new(1, self.cfg.hidden, r), Dense::new(self.cfg.hidden, 3, r))
    }

    /// Restore a snapshot taken by [`Forecaster::export_weights`]; the model
    /// is then ready to forecast without calling `fit`.
    ///
    /// # Errors
    /// Fails when the snapshot does not match this config's architecture.
    pub fn import_weights(&mut self, data: &[u8]) -> Result<(), ForecastError> {
        let (mut gru, mut head) = self.build_net(&mut rng::seeded(self.cfg.seed));
        window::restore(&mut [&mut gru, &mut head], data)?;
        self.fitted = Some((gru, head));
        Ok(())
    }
}

impl Forecaster for DeepAr {
    fn name(&self) -> &'static str {
        "deepar"
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ForecastError> {
        let c = &self.cfg;
        window::require_series(self.name(), series, c.train_window + 1)?;
        // Window dataset over the raw series; each sampled window is
        // rescaled by its own context mean (see `window_scale`). The
        // "target" split is irrelevant here (teacher forcing over the
        // whole window), so use a 1-step target just to get positions.
        let ds = WindowDataset::new(series, c.train_window, 1);

        let mut r = rng::seeded(c.seed);
        let (mut gru, mut head) = self.build_net(&mut r);
        let mut opt = Adam::new(c.lr);

        window::train(
            &ds,
            c.epochs,
            c.windows_per_epoch,
            &mut r,
            |raw_win, _, loss| {
                let (m, sd) = window_scale(&raw_win[..c.context.min(raw_win.len())]);
                let win: Vec<f64> = raw_win.iter().map(|v| (v - m) / sd).collect();
                teacher_forced(&mut gru, &mut head, &win, loss);
                // The components clip independently; the audit records
                // their combined pre-clip global norm.
                window::clip_and_step(&mut opt, &mut [&mut gru, &mut head])
            },
            |stats| self.obs.emit(catalog::TRAIN_DEEPAR_EPOCH, |e| stats.record(e)),
        );

        self.fitted = Some((gru, head));
        Ok(())
    }

    fn forecast_quantiles(
        &self,
        context: &[f64],
        horizon: usize,
        levels: &[f64],
    ) -> Result<QuantileForecast, ForecastError> {
        validate_levels(levels)?;
        // Autoregressive: any horizon, and any context of two samples or
        // more (only its last `cfg.context` are read).
        let guard = ContextGuard {
            model: self.name(),
            needed: 2,
            window: self.cfg.context,
            max_horizon: usize::MAX,
        };
        let ((gru, head), ctx) = guard.admit(self.fitted.as_ref(), context, horizon)?;
        let (m, sd) = window_scale(ctx);
        let zctx: Vec<f64> = ctx.iter().map(|v| (v - m) / sd).collect();

        // Encode the context, then take the first sampling step: every
        // path starts from the same state and the same last observation,
        // so its hidden state and Student-t are computed once.
        let mut cell = gru.stepper();
        let mut out = [0.0; 3];
        for x in &zctx {
            cell.step(std::slice::from_ref(x));
        }
        head.apply_into(cell.state(), &mut out);
        let first = Self::dist_from(&out)?;
        let h1 = cell.state().to_vec();

        // Ancestral sampling, path-major: all paths draw from one stream
        // whose seed depends on the model seed only (not on the context),
        // and the Student-t sampler consumes a variable number of draws, so
        // visiting (path, step) in any other order changes every sample.
        let mut r = rng::seeded(rng::child_seed(self.cfg.seed, 0x5a5a));
        let n = self.cfg.num_samples;
        // Stored step-major so each step's samples are one contiguous row.
        let mut samples = Matrix::zeros(horizon, n);
        for s in 0..n {
            cell.set_state(&h1);
            let mut dist = first;
            for t in 0..horizon {
                let z = dist.sample(&mut r);
                window::require_finite("deepar", format_args!("sample {z}"), &[z])?;
                samples[(t, s)] = z;
                if t + 1 < horizon {
                    cell.step(&[z]);
                    head.apply_into(cell.state(), &mut out);
                    dist = Self::dist_from(&out)?;
                }
            }
        }

        // One in-place sort per horizon step serves every level. The samples
        // are finite, so `total_cmp` gives the order `stats::quantile` sorts
        // into (the two differ only on NaN and between -0.0 and +0.0).
        let mut values = Matrix::zeros(horizon, levels.len());
        for t in 0..horizon {
            let step = samples.row_mut(t);
            step.sort_unstable_by(f64::total_cmp);
            for (i, &l) in levels.iter().enumerate() {
                values[(t, i)] = stats::quantile_sorted(step, l) * sd + m;
            }
        }
        QuantileForecast::new(levels.to_vec(), values)
    }

    fn export_weights(&mut self) -> Option<Vec<u8>> {
        let (gru, head) = self.fitted.as_mut()?;
        Some(window::snapshot(&mut [gru, head], None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_tsmath::rng::{seeded, standard_normal};

    fn tiny_cfg() -> DeepArConfig {
        DeepArConfig {
            context: 12,
            train_window: 24,
            hidden: 12,
            epochs: 30,
            lr: 5e-3,
            windows_per_epoch: 32,
            num_samples: 60,
            seed: 3,
        }
    }

    fn sine_series(n: usize, noise: f64, seed: u64) -> Vec<f64> {
        let mut r = seeded(seed);
        (0..n)
            .map(|t| {
                50.0 + 10.0 * (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin()
                    + noise * standard_normal(&mut r)
            })
            .collect()
    }

    #[test]
    fn learns_short_horizon_sinusoid() {
        let series = sine_series(600, 0.8, 1);
        let mut m = DeepAr::new(tiny_cfg());
        m.fit(&series).unwrap();
        let ctx = &series[240..252];
        let f = m.forecast_quantiles(ctx, 2, &[0.5]).unwrap().median();
        for (h, &v) in f.iter().enumerate() {
            let truth = 50.0 + 10.0 * (2.0 * std::f64::consts::PI * (252 + h) as f64 / 12.0).sin();
            assert!((v - truth).abs() < 6.0, "h={h}: {v} vs {truth}");
        }
    }

    #[test]
    fn quantiles_are_ordered_and_widen() {
        let series = sine_series(500, 1.5, 2);
        let mut m = DeepAr::new(tiny_cfg());
        m.fit(&series).unwrap();
        let f = m.forecast_quantiles(&series[120..132], 8, &[0.1, 0.5, 0.9]).unwrap();
        assert!(f.is_monotone());
        // Iterative sampling accumulates variance: width grows with h.
        let w0 = f.at(0, 0.9) - f.at(0, 0.1);
        let w7 = f.at(7, 0.9) - f.at(7, 0.1);
        assert!(w7 >= w0 * 0.8, "w0={w0} w7={w7}"); // allow noise, but no collapse
        assert!(w0 > 0.0);
    }

    #[test]
    fn forecast_is_deterministic_for_fixed_seed() {
        let series = sine_series(400, 1.0, 3);
        let mut m = DeepAr::new(tiny_cfg());
        m.fit(&series).unwrap();
        let a = m.forecast_quantiles(&series[..24], 4, &[0.5]).unwrap();
        let b = m.forecast_quantiles(&series[..24], 4, &[0.5]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn any_quantile_level_available_after_training() {
        // The parametric/sampling family can produce arbitrary levels
        // without retraining (§III-B) — ask for unusual ones.
        let series = sine_series(400, 1.0, 4);
        let mut m = DeepAr::new(tiny_cfg());
        m.fit(&series).unwrap();
        let f = m.forecast_quantiles(&series[..24], 3, &[0.123, 0.456, 0.987]).unwrap();
        assert_eq!(f.levels(), &[0.123, 0.456, 0.987]);
        assert!(f.is_monotone());
    }

    /// GRU and head as one parameter set, for the gradient check.
    struct Net(GruCell, Dense);

    impl rpas_nn::Layer for Net {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut rpas_nn::Param)) {
            self.0.visit_params(f);
            self.1.visit_params(f);
        }

        fn clear_cache(&mut self) {
            self.0.clear_cache();
            self.1.clear_cache();
        }
    }

    #[test]
    fn whole_model_gradient_matches_finite_differences() {
        // Every GRU and head parameter through the Student-t NLL and the
        // softplus links of σ and ν, across a teacher-forced unroll: the
        // backward reads `1 − h̃²` and `s (1 − s)` off the forward's values.
        let m = DeepAr::new(DeepArConfig { hidden: 4, ..tiny_cfg() });
        let (gru, head) = m.build_net(&mut seeded(8));
        let mut net = Net(gru, head);
        let win = [0.3, -1.1, 0.8, 1.7, -0.4, 2.6, -2.2];
        let err = rpas_nn::gradcheck::check_layer(&mut net, &[], |net, _| {
            let mut loss = 0.0;
            teacher_forced(&mut net.0, &mut net.1, &win, &mut loss);
            (loss, Vec::new())
        });
        assert!(err < 1e-6, "DeepAR whole-model gradcheck err {err}");
    }

    #[test]
    fn unfitted_rejected() {
        let m = DeepAr::new(tiny_cfg());
        assert_eq!(
            m.forecast_quantiles(&[1.0; 12], 2, &[0.5]).unwrap_err(),
            ForecastError::NotFitted
        );
    }

    #[test]
    fn short_series_rejected() {
        let mut m = DeepAr::new(tiny_cfg());
        assert!(matches!(
            m.fit(&[1.0; 20]).unwrap_err(),
            ForecastError::SeriesTooShort { .. }
        ));
    }
}
