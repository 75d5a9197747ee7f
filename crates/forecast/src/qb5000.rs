//! QueryBot-5000-style hybrid point forecaster (Ma et al., SIGMOD 2018):
//! an ensemble of linear regression, an LSTM, and kernel regression,
//! averaged — the paper's representative point-forecasting scaler (§IV-A).

use crate::types::{ForecastError, PointForecaster};
use crate::window::{self, ContextGuard};
use rpas_nn::loss::mse;
use rpas_nn::{Adam, Dense, LstmCell, LstmKMajor};
use rpas_traces::WindowDataset;
use rpas_tsmath::elementary::exp;
use rpas_tsmath::stats::Standardizer;
use rpas_tsmath::{rng, Matrix};

/// QB5000 configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Qb5000Config {
    /// Context length (steps).
    pub context: usize,
    /// Maximum forecast horizon (steps).
    pub horizon: usize,
    /// LSTM hidden size.
    pub hidden: usize,
    /// LSTM training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Windows sampled per epoch for the LSTM.
    pub windows_per_epoch: usize,
    /// Maximum stored (context, target) pairs for kernel regression.
    pub kernel_pairs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Qb5000Config {
    fn default() -> Self {
        Self {
            context: 72,
            horizon: 72,
            hidden: 32,
            epochs: 15,
            lr: 1e-3,
            windows_per_epoch: 96,
            kernel_pairs: 256,
            seed: 0,
        }
    }
}

struct FittedQb {
    /// Ridge-regression weights, `horizon × (context + 1)` (last = bias).
    linear: Matrix,
    /// The trained LSTM's k-major form, built once when it is fitted.
    lstm: LstmKMajor,
    /// The trained cell: the reference its form is pinned against.
    #[cfg(test)]
    cell: LstmCell,
    head: Dense,
    /// Stored pairs for Nadaraya–Watson kernel regression (z-space).
    kernel_ctx: Vec<Vec<f64>>,
    kernel_tgt: Vec<Vec<f64>>,
    /// RBF bandwidth (median pairwise distance heuristic).
    bandwidth: f64,
    scaler: Standardizer,
}

/// Hybrid linear + LSTM + kernel-regression point forecaster.
pub struct Qb5000 {
    cfg: Qb5000Config,
    fitted: Option<FittedQb>,
}

impl Qb5000 {
    /// New unfitted model.
    ///
    /// # Panics
    /// Panics on degenerate config.
    pub fn new(cfg: Qb5000Config) -> Self {
        assert!(cfg.context > 0 && cfg.horizon > 0, "degenerate window spec");
        assert!(cfg.kernel_pairs > 0, "need at least one kernel pair");
        Self { cfg, fitted: None }
    }

    fn lstm_predict(f: &FittedQb, zctx: &[f64]) -> Vec<f64> {
        let mut cell = f.lstm.stepper(1);
        for z in zctx {
            cell.step(std::slice::from_ref(z));
        }
        f.head.apply(cell.hidden())
    }

    fn kernel_predict(f: &FittedQb, zctx: &[f64], horizon: usize) -> Vec<f64> {
        let mut weights = Vec::with_capacity(f.kernel_ctx.len());
        let mut total = 0.0;
        for stored in &f.kernel_ctx {
            let d2: f64 = stored.iter().zip(zctx).map(|(a, b)| (a - b) * (a - b)).sum();
            let w = exp(-d2 / (2.0 * f.bandwidth * f.bandwidth));
            weights.push(w);
            total += w;
        }
        let mut out = vec![0.0; horizon];
        if total <= 1e-300 {
            // All kernels vanish: fall back to the nearest neighbour.
            let mut best = (0usize, f64::INFINITY);
            for (i, stored) in f.kernel_ctx.iter().enumerate() {
                let d2: f64 = stored.iter().zip(zctx).map(|(a, b)| (a - b) * (a - b)).sum();
                if d2 < best.1 {
                    best = (i, d2);
                }
            }
            out.copy_from_slice(&f.kernel_tgt[best.0][..horizon]);
            return out;
        }
        for (w, tgt) in weights.iter().zip(&f.kernel_tgt) {
            for (o, &t) in out.iter_mut().zip(&tgt[..horizon]) {
                *o += w / total * t;
            }
        }
        out
    }

    fn linear_predict(f: &FittedQb, zctx: &[f64], horizon: usize) -> Vec<f64> {
        (0..horizon)
            .map(|h| {
                let row = f.linear.row(h);
                let (coef, bias) = row.split_at(row.len() - 1);
                rpas_tsmath::vector::dot(coef, zctx) + bias[0]
            })
            .collect()
    }
}

impl PointForecaster for Qb5000 {
    fn name(&self) -> &'static str {
        "qb5000"
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ForecastError> {
        let c = &self.cfg;
        let (scaler, z) = window::standardize(self.name(), series, c.context, c.horizon)?;
        let ds = WindowDataset::new(&z, c.context, c.horizon);
        let n = ds.len();

        // --- Linear component: ridge regression per horizon step.
        // Subsample windows for the design matrix to bound cost.
        let max_rows = 512.min(n);
        let stride = (n / max_rows).max(1);
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        let mut i = 0;
        while i < n {
            let (ctx, tgt) = ds.window(i);
            let mut row = ctx.to_vec();
            row.push(1.0); // bias
            rows.push(row);
            targets.push(tgt.to_vec());
            i += stride;
        }
        let x = Matrix::from_rows(&rows);
        let mut linear = Matrix::zeros(c.horizon, c.context + 1);
        for h in 0..c.horizon {
            let y: Vec<f64> = targets.iter().map(|t| t[h]).collect();
            let beta = x
                .least_squares(&y, 1e-3)
                .ok_or_else(|| ForecastError::InvalidConfig("singular linear component".into()))?;
            linear.row_mut(h).copy_from_slice(&beta);
        }

        // --- LSTM component: direct multi-horizon head off the final state.
        let mut r = rng::seeded(c.seed);
        let mut lstm = LstmCell::new(1, c.hidden, &mut r);
        let mut head = Dense::new(c.hidden, c.horizon, &mut r);
        let mut opt = Adam::new(c.lr);
        window::train(
            &ds,
            c.epochs,
            c.windows_per_epoch,
            &mut r,
            |ctx, tgt, _| {
                let mut st = lstm.init_state();
                for &zv in ctx {
                    st = lstm.forward(&[zv], &st);
                }
                let pred = head.forward(&st.h);
                let (_, dpred) = mse(&pred, tgt);
                let dh = head.backward(&dpred);
                let mut dh_next = dh;
                let mut dc_next = vec![0.0; c.hidden];
                for _ in 0..ctx.len() {
                    let (_dx, dprev) = lstm.backward(&dh_next, &dc_next);
                    dh_next = dprev.h;
                    dc_next = dprev.c;
                }
                window::clip_and_step(&mut opt, &mut [&mut lstm, &mut head])
            },
            // No audit trail: QB5000 is a baseline, trained silently.
            |_| {},
        );

        // --- Kernel component: store subsampled pairs, median bandwidth.
        let k_stride = (n / c.kernel_pairs).max(1);
        let mut kernel_ctx = Vec::new();
        let mut kernel_tgt = Vec::new();
        let mut i = 0;
        while i < n && kernel_ctx.len() < c.kernel_pairs {
            let (ctx, tgt) = ds.window(i);
            kernel_ctx.push(ctx.to_vec());
            kernel_tgt.push(tgt.to_vec());
            i += k_stride;
        }
        let mut dists = Vec::new();
        for a in 0..kernel_ctx.len().min(64) {
            for b in a + 1..kernel_ctx.len().min(64) {
                let d2: f64 = kernel_ctx[a]
                    .iter()
                    .zip(&kernel_ctx[b])
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum();
                dists.push(d2.sqrt());
            }
        }
        let bandwidth = if dists.is_empty() {
            1.0
        } else {
            rpas_tsmath::stats::median(&dists).max(1e-6)
        };

        self.fitted = Some(FittedQb {
            linear,
            lstm: lstm.kmajor(),
            #[cfg(test)]
            cell: lstm,
            head,
            kernel_ctx,
            kernel_tgt,
            bandwidth,
            scaler,
        });
        Ok(())
    }

    fn forecast(&self, context: &[f64], horizon: usize) -> Result<Vec<f64>, ForecastError> {
        let guard = ContextGuard::direct(self.name(), self.cfg.context, self.cfg.horizon);
        let (f, ctx) = guard.admit(self.fitted.as_ref(), context, horizon)?;
        let zctx = f.scaler.transform_vec(ctx);

        let lin = Self::linear_predict(f, &zctx, horizon);
        let lstm = Self::lstm_predict(f, &zctx);
        let kern = Self::kernel_predict(f, &zctx, horizon);

        let mean: Vec<f64> =
            (0..horizon).map(|h| f.scaler.inverse((lin[h] + lstm[h] + kern[h]) / 3.0)).collect();
        window::require_finite(self.name(), "ensemble output", &mean)?;
        Ok(mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_tsmath::rng::{seeded, standard_normal};

    fn tiny_cfg() -> Qb5000Config {
        Qb5000Config {
            context: 12,
            horizon: 4,
            hidden: 10,
            epochs: 20,
            lr: 5e-3,
            windows_per_epoch: 24,
            kernel_pairs: 64,
            seed: 11,
        }
    }

    fn sine_series(n: usize, noise: f64, seed: u64) -> Vec<f64> {
        let mut r = seeded(seed);
        (0..n)
            .map(|t| {
                60.0 + 12.0 * (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin()
                    + noise * standard_normal(&mut r)
            })
            .collect()
    }

    #[test]
    fn learns_sinusoid() {
        let series = sine_series(500, 1.0, 1);
        let mut m = Qb5000::new(tiny_cfg());
        m.fit(&series).unwrap();
        let ctx = &series[240..252];
        let pred = m.forecast(ctx, 4).unwrap();
        for (h, &v) in pred.iter().enumerate() {
            let truth = 60.0 + 12.0 * (2.0 * std::f64::consts::PI * (252 + h) as f64 / 12.0).sin();
            assert!((v - truth).abs() < 7.0, "h={h}: {v} vs {truth}");
        }
    }

    #[test]
    fn deterministic_forecasts() {
        let series = sine_series(300, 1.0, 2);
        let mut m = Qb5000::new(tiny_cfg());
        m.fit(&series).unwrap();
        assert_eq!(m.forecast(&series[..12], 4).unwrap(), m.forecast(&series[..12], 4).unwrap());
    }

    #[test]
    fn lstm_component_matches_reference_cell_bit_for_bit() {
        let series = sine_series(300, 1.0, 5);
        let mut m = Qb5000::new(tiny_cfg());
        m.fit(&series).unwrap();
        let f = m.fitted.as_ref().unwrap();
        let zctx = f.scaler.transform_vec(&series[100..112]);
        let mut st = f.cell.init_state();
        for &z in &zctx {
            st = f.cell.apply(&[z], &st);
        }
        let reference = f.head.apply(&st.h);
        let fast = Qb5000::lstm_predict(f, &zctx);
        assert_eq!(
            fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn shorter_horizon_is_prefix_consistent_components() {
        let series = sine_series(300, 1.0, 3);
        let mut m = Qb5000::new(tiny_cfg());
        m.fit(&series).unwrap();
        let f4 = m.forecast(&series[..12], 4).unwrap();
        let f2 = m.forecast(&series[..12], 2).unwrap();
        for h in 0..2 {
            assert!((f4[h] - f2[h]).abs() < 1e-9);
        }
    }

    #[test]
    fn errors_for_misuse() {
        let m = Qb5000::new(tiny_cfg());
        assert_eq!(m.forecast(&[1.0; 12], 2).unwrap_err(), ForecastError::NotFitted);
        let mut m = Qb5000::new(tiny_cfg());
        assert!(m.fit(&[1.0; 10]).is_err());
        m.fit(&sine_series(300, 1.0, 4)).unwrap();
        assert!(matches!(
            m.forecast(&series_short(), 2).unwrap_err(),
            ForecastError::SeriesTooShort { .. }
        ));
        assert!(matches!(
            m.forecast(&sine_series(300, 1.0, 4)[..12], 5).unwrap_err(),
            ForecastError::HorizonTooLong { .. }
        ));
    }

    fn series_short() -> Vec<f64> {
        vec![1.0; 5]
    }
}
