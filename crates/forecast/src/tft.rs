//! Simplified Temporal Fusion Transformer (Lim et al.): the paper's
//! representative of the "learn a pre-specified grid of quantiles" family
//! (Fig. 3b), trained by jointly minimising the pinball loss summed across
//! all quantile outputs (Eq. 2).
//!
//! Pipeline (univariate workload, no static/future covariates — see
//! DESIGN.md §2 for the documented simplifications):
//!
//! ```text
//! z_t ─ input proj + positional encoding ─► LSTM encoder ─► GRN enrichment
//!     ─► causal multi-head self-attention ─► gated residual ─► GRN
//!     ─► quantile heads (horizon × |grid|)
//! ```
//!
//! Because the grid is fixed at training time, asking for other levels
//! interpolates between grid outputs — the retraining limitation the paper
//! discusses for this family.

use crate::types::{validate_levels, ForecastError, Forecaster, PointForecaster, QuantileForecast};
use rpas_nn::loss::pinball_grid;
use rpas_nn::{Adam, Dense, GatedResidualNetwork, Layer, LstmCell, MultiHeadAttention};
use rpas_obs::Obs;
use rpas_traces::WindowDataset;
use rpas_tsmath::stats::Standardizer;
use rpas_tsmath::{rng, Matrix};

/// TFT configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TftConfig {
    /// Context length (steps).
    pub context: usize,
    /// Maximum forecast horizon (steps).
    pub horizon: usize,
    /// Model width (LSTM hidden size = attention `d_model`).
    pub d_model: usize,
    /// Attention heads (must divide `d_model`).
    pub heads: usize,
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

impl Default for TftConfig {
    fn default() -> Self {
        Self {
            context: 72,
            horizon: 72,
            d_model: 32,
            heads: 4,
            quantiles: crate::EVAL_LEVELS.to_vec(),
            epochs: 25,
            lr: 1e-3,
            windows_per_epoch: 96,
            seed: 0,
        }
    }
}

struct TftNet {
    input_proj: Dense,
    lstm: LstmCell,
    grn_enrich: GatedResidualNetwork,
    attn: MultiHeadAttention,
    grn_post: GatedResidualNetwork,
    head: Dense,
}

impl TftNet {
    fn visit(&mut self, f: &mut dyn FnMut(&mut rpas_nn::Param)) {
        self.input_proj.visit_params(f);
        self.lstm.visit_params(f);
        self.grn_enrich.visit_params(f);
        self.attn.visit_params(f);
        self.grn_post.visit_params(f);
        self.head.visit_params(f);
    }

    fn zero_grad(&mut self) {
        self.visit(&mut |p| p.zero_grad());
    }

    fn clear_cache(&mut self) {
        self.input_proj.clear_cache();
        self.lstm.clear_cache();
        self.grn_enrich.clear_cache();
        self.attn.clear_cache();
        self.grn_post.clear_cache();
        self.head.clear_cache();
    }
}

impl rpas_nn::Layer for TftNet {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut rpas_nn::Param)) {
        self.visit(f);
    }

    fn clear_cache(&mut self) {
        TftNet::clear_cache(self);
    }
}

/// Simplified Temporal Fusion Transformer.
pub struct Tft {
    cfg: TftConfig,
    net: Option<TftNet>,
    scaler: Option<Standardizer>,
    posenc: Matrix,
    obs: Obs,
}

/// Sinusoidal positional encoding table `len × d`.
fn positional_encoding(len: usize, d: usize) -> Matrix {
    let mut m = Matrix::zeros(len, d);
    for t in 0..len {
        for i in 0..d {
            let angle = t as f64 / 10_000f64.powf(2.0 * (i / 2) as f64 / d as f64);
            m[(t, i)] = if i % 2 == 0 { angle.sin() } else { angle.cos() };
        }
    }
    m
}

impl Tft {
    /// New unfitted model.
    ///
    /// # Panics
    /// Panics on degenerate configs (empty/unsorted grid, indivisible
    /// heads, zero sizes).
    pub fn new(cfg: TftConfig) -> Self {
        assert!(cfg.context > 0 && cfg.horizon > 0, "degenerate window spec");
        assert!(cfg.d_model > 0 && cfg.d_model.is_multiple_of(cfg.heads), "heads must divide d_model");
        assert!(
            !cfg.quantiles.is_empty() && cfg.quantiles.windows(2).all(|w| w[0] < w[1]),
            "quantile grid must be non-empty and strictly increasing"
        );
        assert!(cfg.quantiles.iter().all(|&q| q > 0.0 && q < 1.0), "grid levels must be in (0,1)");
        let posenc = positional_encoding(cfg.context, cfg.d_model);
        Self { cfg, net: None, scaler: None, posenc, obs: Obs::noop() }
    }

    /// Builder: attach an observability handle; `fit` then emits one
    /// `train.tft/epoch` debug event per epoch (mean pinball loss, mean
    /// pre-clip gradient norm).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Borrow the config.
    pub fn config(&self) -> &TftConfig {
        &self.cfg
    }

    /// Trained quantile grid.
    pub fn grid(&self) -> &[f64] {
        &self.cfg.quantiles
    }

    /// Forward with caches; returns the head output (grid predictions,
    /// z-scale) laid out `horizon-major`: `out[h * |grid| + i]`.
    fn forward_train(&mut self, zctx: &[f64]) -> Vec<f64> {
        let cfg_context = self.cfg.context;
        let d = self.cfg.d_model;
        let net = self.net.as_mut().expect("forward_train after init");
        debug_assert_eq!(zctx.len(), cfg_context);

        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(cfg_context);
        let mut state = net.lstm.init_state();
        for (t, &z) in zctx.iter().enumerate() {
            let mut e = net.input_proj.forward(&[z]);
            for (i, v) in e.iter_mut().enumerate() {
                *v += self.posenc[(t, i)];
            }
            state = net.lstm.forward(&e, &state);
            rows.push(net.grn_enrich.forward(&state.h));
        }
        let x = Matrix::from_rows(&rows);
        let a = net.attn.forward(&x);
        // Gated residual around attention at the decoding position.
        let last = cfg_context - 1;
        let summed: Vec<f64> = (0..d).map(|i| a[(last, i)] + x[(last, i)]).collect();
        let post = net.grn_post.forward(&summed);
        net.head.forward(&post)
    }

    /// Backward matching [`Tft::forward_train`].
    fn backward_train(&mut self, dout: &[f64]) {
        let cfg_context = self.cfg.context;
        let d = self.cfg.d_model;
        let net = self.net.as_mut().expect("backward_train after init");

        let dpost = net.head.backward(dout);
        let dsum = net.grn_post.backward(&dpost);
        let last = cfg_context - 1;
        let mut da = Matrix::zeros(cfg_context, d);
        for i in 0..d {
            da[(last, i)] = dsum[i];
        }
        let mut dx = net.attn.backward(&da);
        // Residual path.
        for i in 0..d {
            dx[(last, i)] += dsum[i];
        }
        // Through enrichment GRN + LSTM, in reverse time order.
        let mut dstate_h = vec![0.0; d];
        let mut dstate_c = vec![0.0; d];
        for t in (0..cfg_context).rev() {
            let mut dh = net.grn_enrich.backward(dx.row(t));
            for (a, b) in dh.iter_mut().zip(&dstate_h) {
                *a += b;
            }
            let (de, dprev) = net.lstm.backward(&dh, &dstate_c);
            dstate_h = dprev.h;
            dstate_c = dprev.c;
            let _ = net.input_proj.backward(&de);
        }
    }

    /// Inference-only forward: the values of [`Tft::forward_train`], bit
    /// for bit, on the shared net — no caches, one scratch set per call,
    /// and only the attention row the head reads.
    fn forward_infer(&self, zctx: &[f64]) -> Vec<f64> {
        let net = self.net.as_ref().expect("forward_infer after fit");
        let d = self.cfg.d_model;
        let last = zctx.len() - 1;

        let mut lstm = net.lstm.stepper();
        let mut e = vec![0.0; d];
        let mut scratch = Vec::new();
        let mut x = Matrix::zeros(zctx.len(), d);
        for (t, z) in zctx.iter().enumerate() {
            net.input_proj.apply_into(std::slice::from_ref(z), &mut e);
            for (v, p) in e.iter_mut().zip(self.posenc.row(t)) {
                *v += p;
            }
            net.grn_enrich.apply_into(lstm.step(&e), &mut scratch, x.row_mut(t));
        }
        // Gated residual around attention at the decoding position.
        let mut summed = net.attn.attend_last(&x);
        for (a, xi) in summed.iter_mut().zip(x.row(last)) {
            *a += xi;
        }
        let mut post = vec![0.0; d];
        net.grn_post.apply_into(&summed, &mut scratch, &mut post);
        net.head.apply(&post)
    }
}

impl Tft {
    fn build_net(cfg: &TftConfig) -> TftNet {
        let mut r = rng::seeded(cfg.seed);
        let d = cfg.d_model;
        TftNet {
            input_proj: Dense::new(1, d, &mut r),
            lstm: LstmCell::new(d, d, &mut r),
            grn_enrich: GatedResidualNetwork::new(d, d, d, &mut r),
            attn: MultiHeadAttention::new(d, cfg.heads, true, &mut r),
            grn_post: GatedResidualNetwork::new(d, d, d, &mut r),
            head: Dense::new(d, cfg.horizon * cfg.quantiles.len(), &mut r),
        }
    }

    /// Snapshot the trained weights and input scaler (None until fitted).
    pub fn export_weights(&mut self) -> Option<Vec<u8>> {
        let scaler = self.scaler?;
        let net = self.net.as_mut()?;
        Some(
            rpas_nn::save_weights(
                &mut [net as &mut dyn rpas_nn::Layer],
                &[scaler.mean, scaler.std],
            )
            .to_vec(),
        )
    }

    /// Restore weights exported by [`Tft::export_weights`]; the model
    /// becomes ready to forecast without calling `fit`.
    ///
    /// # Errors
    /// Fails when the snapshot does not match this config's architecture.
    pub fn import_weights(&mut self, data: &[u8]) -> Result<(), ForecastError> {
        let mut net = Self::build_net(&self.cfg);
        let extras =
            rpas_nn::load_weights(&mut [&mut net as &mut dyn rpas_nn::Layer], data)
                .map_err(|e| ForecastError::InvalidConfig(format!("weight snapshot: {e}")))?;
        if extras.len() != 2 {
            return Err(ForecastError::InvalidConfig("snapshot missing scaler".into()));
        }
        self.net = Some(net);
        self.scaler = Some(Standardizer { mean: extras[0], std: extras[1] });
        Ok(())
    }
}

impl Forecaster for Tft {
    fn name(&self) -> &'static str {
        "tft"
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ForecastError> {
        let c = self.cfg.clone();
        let needed = c.context + c.horizon + 1;
        if series.len() < needed {
            return Err(ForecastError::SeriesTooShort { needed, got: series.len() });
        }
        let scaler = Standardizer::fit(series);
        let z = scaler.transform_vec(series);
        let ds = WindowDataset::new(&z, c.context, c.horizon);

        let mut r = rng::seeded(c.seed);
        self.net = Some(Self::build_net(&c));
        let mut opt = Adam::new(c.lr);
        let nq = c.quantiles.len();

        for epoch in 0..c.epochs {
            let mut epoch_loss = 0.0;
            let mut norm_sum = 0.0;
            for _ in 0..c.windows_per_epoch {
                let idx = (rng::uniform_open(&mut r) * ds.len() as f64) as usize;
                let (ctx, tgt) = ds.example(idx.min(ds.len() - 1));
                let out = self.forward_train(ctx);
                let mut dout = vec![0.0; out.len()];
                let scale = 1.0 / (c.horizon as f64);
                for (h, &y) in tgt.iter().enumerate() {
                    let preds = &out[h * nq..(h + 1) * nq];
                    let (l, g) = pinball_grid(preds, y, &c.quantiles);
                    epoch_loss += l * scale;
                    for (i, gi) in g.iter().enumerate() {
                        dout[h * nq + i] = gi * scale;
                    }
                }
                self.backward_train(&dout);
                let net = self.net.as_mut().expect("initialised above");
                norm_sum += net.clip_grad_norm(5.0);
                opt.begin_step();
                net.visit(&mut |p| opt.update(p));
                net.zero_grad();
                net.clear_cache();
            }
            self.obs.debug("train.tft", "epoch", |e| {
                e.field("epoch", epoch)
                    .field("loss", epoch_loss / c.windows_per_epoch as f64)
                    .field("grad_norm", norm_sum / c.windows_per_epoch as f64);
            });
        }

        self.scaler = Some(scaler);
        Ok(())
    }

    fn forecast_quantiles(
        &self,
        context: &[f64],
        horizon: usize,
        levels: &[f64],
    ) -> Result<QuantileForecast, ForecastError> {
        validate_levels(levels)?;
        if self.net.is_none() || self.scaler.is_none() {
            return Err(ForecastError::NotFitted);
        }
        if horizon > self.cfg.horizon {
            return Err(ForecastError::HorizonTooLong { max: self.cfg.horizon, requested: horizon });
        }
        if context.len() < self.cfg.context {
            return Err(ForecastError::SeriesTooShort {
                needed: self.cfg.context,
                got: context.len(),
            });
        }
        let scaler = self.scaler.as_ref().expect("checked above");
        let ctx = &context[context.len() - self.cfg.context..];
        if !ctx.iter().all(|v| v.is_finite()) {
            return Err(ForecastError::Unhealthy("tft: non-finite value in context".into()));
        }
        let zctx = scaler.transform_vec(ctx);
        let out = self.forward_infer(&zctx);
        if !out.iter().all(|v| v.is_finite()) {
            return Err(ForecastError::Unhealthy("tft: non-finite head output".into()));
        }

        // Grid forecast in data units.
        let nq = self.cfg.quantiles.len();
        let mut grid_vals = Matrix::zeros(horizon, nq);
        for h in 0..horizon {
            for i in 0..nq {
                grid_vals[(h, i)] = scaler.inverse(out[h * nq + i]);
            }
        }
        let grid_forecast = QuantileForecast::new(self.cfg.quantiles.clone(), grid_vals);

        // Reindex to the requested levels (interpolating off-grid ones).
        if levels == self.cfg.quantiles.as_slice() {
            return Ok(grid_forecast);
        }
        let mut values = Matrix::zeros(horizon, levels.len());
        for h in 0..horizon {
            for (i, &l) in levels.iter().enumerate() {
                values[(h, i)] = grid_forecast.at(h, l);
            }
        }
        Ok(QuantileForecast::new(levels.to_vec(), values))
    }
}

impl PointForecaster for Tft {
    fn name(&self) -> &'static str {
        "tft"
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ForecastError> {
        Forecaster::fit(self, series)
    }

    fn forecast(&self, context: &[f64], horizon: usize) -> Result<Vec<f64>, ForecastError> {
        Ok(self.forecast_quantiles(context, horizon, &[0.5])?.median())
    }
}

impl crate::types::ErrorFeedback for Tft {}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_tsmath::rng::{seeded, standard_normal};

    fn tiny_cfg() -> TftConfig {
        TftConfig {
            context: 12,
            horizon: 4,
            d_model: 8,
            heads: 2,
            quantiles: vec![0.1, 0.5, 0.9],
            epochs: 40,
            lr: 5e-3,
            windows_per_epoch: 24,
            seed: 5,
        }
    }

    fn sine_series(n: usize, noise: f64, seed: u64) -> Vec<f64> {
        let mut r = seeded(seed);
        (0..n)
            .map(|t| {
                80.0 + 15.0 * (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin()
                    + noise * standard_normal(&mut r)
            })
            .collect()
    }

    #[test]
    fn learns_sinusoid_median() {
        let series = sine_series(500, 1.0, 1);
        let mut m = Tft::new(tiny_cfg());
        Forecaster::fit(&mut m, &series).unwrap();
        let ctx = &series[240..252];
        let med = PointForecaster::forecast(&m, ctx, 4).unwrap();
        for (h, &v) in med.iter().enumerate() {
            let truth = 80.0 + 15.0 * (2.0 * std::f64::consts::PI * (252 + h) as f64 / 12.0).sin();
            assert!((v - truth).abs() < 8.0, "h={h}: {v} vs {truth}");
        }
    }

    #[test]
    fn grid_levels_returned_directly() {
        let series = sine_series(300, 1.0, 2);
        let mut m = Tft::new(tiny_cfg());
        Forecaster::fit(&mut m, &series).unwrap();
        let f = m.forecast_quantiles(&series[..12], 3, &[0.1, 0.5, 0.9]).unwrap();
        assert_eq!(f.levels(), &[0.1, 0.5, 0.9]);
        assert!(f.is_monotone());
    }

    #[test]
    fn off_grid_levels_interpolate() {
        let series = sine_series(300, 1.0, 3);
        let mut m = Tft::new(tiny_cfg());
        Forecaster::fit(&mut m, &series).unwrap();
        let f = m.forecast_quantiles(&series[..12], 2, &[0.3, 0.7]).unwrap();
        let g = m.forecast_quantiles(&series[..12], 2, &[0.1, 0.5, 0.9]).unwrap();
        // 0.3 must land between the 0.1 and 0.5 grid outputs.
        for h in 0..2 {
            assert!(f.at(h, 0.3) >= g.at(h, 0.1) - 1e-9);
            assert!(f.at(h, 0.3) <= g.at(h, 0.5) + 1e-9);
        }
    }

    #[test]
    fn pinball_trained_quantiles_spread() {
        let series = sine_series(500, 3.0, 4);
        let mut m = Tft::new(tiny_cfg());
        Forecaster::fit(&mut m, &series).unwrap();
        let f = m.forecast_quantiles(&series[120..132], 4, &[0.1, 0.9]).unwrap();
        for h in 0..4 {
            let w = f.at(h, 0.9) - f.at(h, 0.1);
            assert!(w > 1.0, "no spread at h={h}: {w}");
        }
    }

    #[test]
    fn errors_for_unfitted_and_horizon() {
        let m = Tft::new(tiny_cfg());
        assert_eq!(
            m.forecast_quantiles(&[0.0; 12], 2, &[0.5]).unwrap_err(),
            ForecastError::NotFitted
        );
        let series = sine_series(300, 1.0, 5);
        let mut m = Tft::new(tiny_cfg());
        Forecaster::fit(&mut m, &series).unwrap();
        assert!(matches!(
            m.forecast_quantiles(&series[..12], 9, &[0.5]).unwrap_err(),
            ForecastError::HorizonTooLong { .. }
        ));
    }

    #[test]
    fn forward_infer_matches_forward_train_bit_for_bit() {
        let series = sine_series(300, 2.0, 6);
        let mut m = Tft::new(TftConfig { epochs: 3, ..tiny_cfg() });
        Forecaster::fit(&mut m, &series).unwrap();
        let scaler = m.scaler.unwrap();
        for start in [0, 37, 200] {
            let zctx = scaler.transform_vec(&series[start..start + 12]);
            let fast = m.forward_infer(&zctx);
            let reference = m.forward_train(&zctx);
            m.net.as_mut().unwrap().clear_cache();
            assert_eq!(fast.len(), reference.len());
            for (i, (a, b)) in fast.iter().zip(&reference).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "window {start} output {i}: {a:e} vs {b:e}");
            }
        }
    }

    #[test]
    fn non_finite_context_is_unhealthy_not_a_nan_forecast() {
        let series = sine_series(300, 1.0, 7);
        let mut m = Tft::new(TftConfig { epochs: 2, ..tiny_cfg() });
        Forecaster::fit(&mut m, &series).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut ctx = series[..12].to_vec();
            ctx[5] = bad;
            assert!(matches!(
                m.forecast_quantiles(&ctx, 4, &[0.1, 0.5, 0.9]).unwrap_err(),
                ForecastError::Unhealthy(_)
            ));
        }
        // A non-finite value the context window has already slid past is fine.
        let mut long = vec![f64::NAN];
        long.extend_from_slice(&series[..12]);
        assert_eq!(
            m.forecast_quantiles(&long, 4, &[0.5]).unwrap(),
            m.forecast_quantiles(&series[..12], 4, &[0.5]).unwrap()
        );
    }

    #[test]
    fn diverged_weights_are_unhealthy_not_a_nan_forecast() {
        let series = sine_series(300, 1.0, 8);
        let mut m = Tft::new(TftConfig { epochs: 2, ..tiny_cfg() });
        Forecaster::fit(&mut m, &series).unwrap();
        m.net.as_mut().unwrap().head.b.data[0] = f64::NAN;
        assert!(matches!(
            m.forecast_quantiles(&series[..12], 4, &[0.5]).unwrap_err(),
            ForecastError::Unhealthy(_)
        ));
    }

    #[test]
    fn positional_encoding_shape_and_range() {
        let pe = positional_encoding(10, 6);
        assert_eq!(pe.rows(), 10);
        assert_eq!(pe.cols(), 6);
        assert!(pe.data().iter().all(|v| v.abs() <= 1.0));
        // Row 0: sin(0)=0, cos(0)=1 alternating.
        assert_eq!(pe[(0, 0)], 0.0);
        assert_eq!(pe[(0, 1)], 1.0);
    }
}
