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

use crate::grid;
use crate::types::{validate_levels, ForecastError, Forecaster, QuantileForecast};
use crate::window::{self, ContextGuard};
use rpas_nn::{
    Adam, AttentionKMajor, Dense, GatedResidualNetwork, GrnKMajor, Layer, LstmCell, LstmKMajor,
    MultiHeadAttention,
};
use rpas_obs::{catalog, Obs};
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

impl Layer for TftNet {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut rpas_nn::Param)) {
        self.input_proj.visit_params(f);
        self.lstm.visit_params(f);
        self.grn_enrich.visit_params(f);
        self.attn.visit_params(f);
        self.grn_post.visit_params(f);
        self.head.visit_params(f);
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

/// Context positions one multi-row pass of [`Tft::forward_infer`] takes:
/// the LSTM's input terms and the enrichment GRN run on this many rows at
/// a time, so their scratch does not grow with the context.
const PASS_ROWS: usize = 16;

/// A fitted net and its scaler, with the k-major form of the layers
/// [`Tft::forward_infer`] runs through. [`Fitted::new`] is the one way to
/// make one, so the form is built from the weights it sits beside, once
/// per fit or import, and no predict transposes a weight.
struct Fitted {
    net: TftNet,
    scaler: Standardizer,
    lstm: LstmKMajor,
    enrich: GrnKMajor,
    attn: AttentionKMajor,
    post: GrnKMajor,
}

impl Fitted {
    fn new(net: TftNet, scaler: Standardizer) -> Self {
        Self {
            lstm: net.lstm.kmajor(),
            enrich: net.grn_enrich.kmajor(),
            attn: net.attn.kmajor(),
            post: net.grn_post.kmajor(),
            net,
            scaler,
        }
    }
}

/// Simplified Temporal Fusion Transformer.
pub struct Tft {
    cfg: TftConfig,
    fitted: Option<Fitted>,
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
        grid::assert_valid(&cfg.quantiles);
        let posenc = positional_encoding(cfg.context, cfg.d_model);
        Self { cfg, fitted: None, posenc, obs: Obs::noop() }
    }

    /// Builder: attach an observability handle; `fit` then emits one
    /// `train.tft/epoch` debug event per epoch (mean pinball loss, mean
    /// pre-clip gradient norm).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Forward with caches; returns the head output (grid predictions,
    /// z-scale) laid out `horizon-major`: `out[h * |grid| + i]`.
    fn forward_train(&self, net: &mut TftNet, zctx: &[f64]) -> Vec<f64> {
        let cfg_context = self.cfg.context;
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
        // The head reads the decoding position only, so attention trains
        // on that one query row.
        let mut summed = net.attn.forward_last(&x);
        // Gated residual around attention at the decoding position.
        for (a, xi) in summed.iter_mut().zip(x.row(cfg_context - 1)) {
            *a += xi;
        }
        let post = net.grn_post.forward(&summed);
        net.head.forward(&post)
    }

    /// Backward matching [`Tft::forward_train`]; returns `d loss / d zctx`.
    fn backward_train(&self, net: &mut TftNet, dout: &[f64]) -> Vec<f64> {
        let cfg_context = self.cfg.context;
        let d = self.cfg.d_model;

        let dpost = net.head.backward(dout);
        let dsum = net.grn_post.backward(&dpost);
        let mut dx = net.attn.backward_last(&dsum);
        // Residual path.
        for (a, b) in dx.row_mut(cfg_context - 1).iter_mut().zip(&dsum) {
            *a += b;
        }
        // Through enrichment GRN + LSTM, in reverse time order.
        let mut dstate_h = vec![0.0; d];
        let mut dstate_c = vec![0.0; d];
        let mut dz = vec![0.0; cfg_context];
        for t in (0..cfg_context).rev() {
            let mut dh = net.grn_enrich.backward(dx.row(t));
            for (a, b) in dh.iter_mut().zip(&dstate_h) {
                *a += b;
            }
            let (de, dprev) = net.lstm.backward(&dh, &dstate_c);
            dstate_h = dprev.h;
            dstate_c = dprev.c;
            dz[t] = net.input_proj.backward(&de)[0];
        }
        dz
    }

    /// Inference-only forward: the values of [`Tft::forward_train`], bit
    /// for bit, on the shared fitted net and its k-major form — no caches,
    /// and only the attention row the head reads. Only the LSTM's `U h`
    /// is recurrent, so the context goes [`PASS_ROWS`] positions at a
    /// time: the embeddings, then the LSTM (its `b + W e` terms as one
    /// multi-row pass), then the enrichment GRN as one multi-row pass.
    /// Attention projects K and V as one pass over all positions.
    fn forward_infer(&self, f: &Fitted, zctx: &[f64]) -> Vec<f64> {
        let d = self.cfg.d_model;
        let t_len = zctx.len();

        let mut lstm = f.lstm.stepper(PASS_ROWS);
        let mut enrich = f.enrich.view(PASS_ROWS);
        let (mut e, mut h) = (vec![0.0; PASS_ROWS * d], vec![0.0; PASS_ROWS * d]);
        let mut x = vec![0.0; t_len * d];
        let passes = zctx
            .chunks(PASS_ROWS)
            .zip(self.posenc.data().chunks(PASS_ROWS * d))
            .zip(x.chunks_mut(PASS_ROWS * d));
        for ((zs, posenc), xb) in passes {
            let (e, h) = (&mut e[..xb.len()], &mut h[..xb.len()]);
            for ((z, er), pr) in zs.iter().zip(e.chunks_exact_mut(d)).zip(posenc.chunks_exact(d)) {
                f.net.input_proj.apply_into(std::slice::from_ref(z), er);
                for (v, p) in er.iter_mut().zip(pr) {
                    *v += p;
                }
            }
            lstm.run(e, h);
            enrich.apply_rows(h, xb);
        }
        let x = Matrix::from_vec(t_len, d, x);
        // Gated residual around attention at the decoding position.
        let mut summed = f.attn.attend_last(&x);
        for (a, xi) in summed.iter_mut().zip(x.row(t_len - 1)) {
            *a += xi;
        }
        let mut post = vec![0.0; d];
        f.post.view(1).apply_rows(&summed, &mut post);
        f.net.head.apply(&post)
    }

    /// The untrained network, initialised from its own `cfg.seed` stream.
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

    /// Restore a snapshot taken by [`Forecaster::export_weights`]; the model
    /// is then ready to forecast without calling `fit`.
    ///
    /// # Errors
    /// Fails when the snapshot does not match this config's architecture.
    pub fn import_weights(&mut self, data: &[u8]) -> Result<(), ForecastError> {
        let mut net = Self::build_net(&self.cfg);
        let scaler = window::restore_scaled(&mut [&mut net], data)?;
        self.fitted = Some(Fitted::new(net, scaler));
        Ok(())
    }
}

impl Forecaster for Tft {
    fn name(&self) -> &'static str {
        "tft"
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ForecastError> {
        let c = &self.cfg;
        let (scaler, z) = window::standardize(self.name(), series, c.context, c.horizon)?;
        let ds = WindowDataset::new(&z, c.context, c.horizon);

        // The net initialises from its own stream of the same seed; this
        // one only draws windows.
        let mut r = rng::seeded(c.seed);
        let mut net = Self::build_net(c);
        let mut opt = Adam::new(c.lr);

        window::train(
            &ds,
            c.epochs,
            c.windows_per_epoch,
            &mut r,
            |ctx, tgt, loss| {
                let out = self.forward_train(&mut net, ctx);
                self.backward_train(&mut net, &grid::pinball_step(&out, tgt, &c.quantiles, loss));
                let norm = net.clip_grad_norm(window::CLIP_NORM);
                opt.step_layer(&mut net);
                net.clear_cache();
                norm
            },
            |stats| self.obs.emit(catalog::TRAIN_TFT_EPOCH, |e| stats.record(e)),
        );

        self.fitted = Some(Fitted::new(net, scaler));
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
        let (f, ctx) = guard.admit(self.fitted.as_ref(), context, horizon)?;
        let out = self.forward_infer(f, &f.scaler.transform_vec(ctx));
        grid::decode(self.name(), &out, &f.scaler, &c.quantiles, horizon, levels)
    }

    fn export_weights(&mut self) -> Option<Vec<u8>> {
        let f = self.fitted.as_mut()?;
        Some(window::snapshot(&mut [&mut f.net], Some(f.scaler)))
    }
}

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
        m.fit(&series).unwrap();
        let ctx = &series[240..252];
        let med = m.forecast_quantiles(ctx, 4, &[0.5]).unwrap().median();
        for (h, &v) in med.iter().enumerate() {
            let truth = 80.0 + 15.0 * (2.0 * std::f64::consts::PI * (252 + h) as f64 / 12.0).sin();
            assert!((v - truth).abs() < 8.0, "h={h}: {v} vs {truth}");
        }
    }

    #[test]
    fn grid_levels_returned_directly() {
        let series = sine_series(300, 1.0, 2);
        let mut m = Tft::new(tiny_cfg());
        m.fit(&series).unwrap();
        let f = m.forecast_quantiles(&series[..12], 3, &[0.1, 0.5, 0.9]).unwrap();
        assert_eq!(f.levels(), &[0.1, 0.5, 0.9]);
        assert!(f.is_monotone());
    }

    #[test]
    fn off_grid_levels_interpolate() {
        let series = sine_series(300, 1.0, 3);
        let mut m = Tft::new(tiny_cfg());
        m.fit(&series).unwrap();
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
        m.fit(&series).unwrap();
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
        m.fit(&series).unwrap();
        assert!(matches!(
            m.forecast_quantiles(&series[..12], 9, &[0.5]).unwrap_err(),
            ForecastError::HorizonTooLong { .. }
        ));
    }

    /// Fit `cfg` on `series`, then hold `forward_infer` to `forward_train`
    /// bit for bit on contexts starting at each of `starts`.
    fn assert_infer_matches_train(cfg: TftConfig, series: &[f64], starts: &[usize]) {
        let context = cfg.context;
        let mut m = Tft::new(cfg);
        m.fit(series).unwrap();
        let mut f = m.fitted.take().unwrap();
        for &start in starts {
            let zctx = f.scaler.transform_vec(&series[start..start + context]);
            let fast = m.forward_infer(&f, &zctx);
            let reference = m.forward_train(&mut f.net, &zctx);
            f.net.clear_cache();
            assert_eq!(fast.len(), reference.len());
            for (i, (a, b)) in fast.iter().zip(&reference).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "window {start} output {i}: {a:e} vs {b:e}");
            }
        }
    }

    #[test]
    fn forward_infer_matches_forward_train_bit_for_bit() {
        // Context 12: one short multi-row pass; d_model 8: one row block.
        let series = sine_series(300, 2.0, 6);
        assert_infer_matches_train(TftConfig { epochs: 3, ..tiny_cfg() }, &series, &[0, 37, 200]);
    }

    #[test]
    fn forward_infer_matches_forward_train_at_the_ledger_shape() {
        // Context 72 (four whole passes and a short one), d_model 32 with 4
        // heads, the 7 scaling levels over horizon 72: a 504-row head.
        let cfg = TftConfig {
            context: 72,
            horizon: 72,
            d_model: 32,
            heads: 4,
            quantiles: crate::SCALING_LEVELS.to_vec(),
            epochs: 1,
            windows_per_epoch: 4,
            ..tiny_cfg()
        };
        let series = sine_series(400, 2.0, 7);
        assert_infer_matches_train(cfg, &series, &[0, 113, 256]);
    }

    #[test]
    fn whole_model_gradient_matches_finite_differences() {
        // Every parameter of the composed net — input projection, LSTM,
        // both GRNs, last-row attention, head — and the input, under a
        // smooth loss (pinball is kinked at every target).
        let m = Tft::new(TftConfig {
            context: 5,
            horizon: 2,
            d_model: 4,
            heads: 2,
            quantiles: vec![0.1, 0.5, 0.9],
            ..tiny_cfg()
        });
        let mut net = Tft::build_net(&m.cfg);
        let zctx = [0.3, -1.1, 0.8, 1.7, -0.4];
        let err = rpas_nn::gradcheck::check_layer(&mut net, &zctx, |net, z| {
            let out = m.forward_train(net, z);
            let loss = 0.5 * out.iter().map(|v| v * v).sum::<f64>();
            (loss, m.backward_train(net, &out))
        });
        assert!(err < 1e-5, "TFT whole-model gradcheck err {err}");
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
