//! Cross-crate determinism tests: the workspace guarantees that one seed
//! fixes every downstream artifact. For each forecaster family, fitting
//! and forecasting twice from the same seed must produce **byte-identical**
//! `QuantileForecast` values and `CapacityPlan` allocations — no
//! `HashMap` iteration order, thread timing, or global RNG state may leak
//! into results.
//!
//! Also pins the rolling-origin forecast pass and the plan scorer to the
//! protocol's index arithmetic on a fixed trace, so no refactor of the
//! window grid can silently shift window boundaries.

use rpas::core::{
    backtest, quantile_windows, RobustAutoScalingManager, RollingSpec, ScalingStrategy,
};
use rpas::forecast::{
    Arima, ArimaConfig, DeepAr, DeepArConfig, DistKind, Forecaster, HoltWinters,
    HoltWintersConfig, LastValue, MlpProb, MlpProbConfig, QuantileForecast, SeasonalNaive, Tft,
    TftConfig, SCALING_LEVELS,
};
use rpas::obs::Obs;
use rpas::traces::{alibaba_like, STEPS_PER_DAY};
use rpas_tsmath::{prop_assert, prop_assert_eq};
use rpas_tsmath::propcheck::{forall, Gen};

const THETA: f64 = 60.0;
const CONTEXT: usize = 48;
const HORIZON: usize = 24;

/// Fixed train/test split shared by every test in this file.
fn fixed_series() -> (Vec<f64>, Vec<f64>) {
    let trace = alibaba_like(11, 8).cpu().clone();
    let (train, test) = trace.train_test_split(0.7);
    (train.values, test.values)
}

/// Byte-level equality for forecast matrices: `to_bits` distinguishes
/// even same-valued floats with different representations (-0.0 vs 0.0).
fn forecast_bits(qf: &QuantileForecast) -> Vec<u64> {
    qf.values().data().iter().map(|v| v.to_bits()).collect()
}

/// Fit a fresh forecaster, forecast one window, and plan capacity.
fn run_once<F: Forecaster>(
    mut model: F,
    train: &[f64],
    test: &[f64],
    context: usize,
) -> (Vec<u64>, Vec<u32>) {
    model.fit(train).expect("fit");
    let qf = model
        .forecast_quantiles(&test[..context], HORIZON, &SCALING_LEVELS)
        .expect("forecast");
    let manager = RobustAutoScalingManager::new(THETA, 1, ScalingStrategy::Fixed { tau: 0.9 });
    let plan = manager.plan(&qf);
    (forecast_bits(&qf), plan.as_slice().to_vec())
}

/// Assert two independent runs of the same constructor agree bit-for-bit.
fn assert_deterministic<F: Forecaster>(name: &str, context: usize, make: impl Fn() -> F) {
    let (train, test) = fixed_series();
    let (f1, p1) = run_once(make(), &train, &test, context);
    let (f2, p2) = run_once(make(), &train, &test, context);
    assert_eq!(f1, f2, "{name}: QuantileForecast values differ between runs");
    assert_eq!(p1, p2, "{name}: CapacityPlan differs between runs");
}

#[test]
fn seasonal_naive_is_deterministic() {
    // Seasonal-naive needs one full period of context.
    assert_deterministic("seasonal-naive", STEPS_PER_DAY, || SeasonalNaive::new(STEPS_PER_DAY));
}

#[test]
fn arima_is_deterministic() {
    assert_deterministic("arima", CONTEXT, || Arima::new(ArimaConfig::default()));
}

#[test]
fn mlp_is_deterministic() {
    assert_deterministic("mlp", CONTEXT, || {
        MlpProb::new(MlpProbConfig {
            context: CONTEXT,
            horizon: HORIZON,
            hidden: vec![16],
            dist: DistKind::StudentT,
            epochs: 4,
            lr: 1e-3,
            windows_per_epoch: 32,
            seed: 9,
        })
    });
}

#[test]
fn deepar_is_deterministic() {
    // DeepAR is the strictest case: its quantiles come from Monte-Carlo
    // sample paths, so any RNG state shared across runs would show up here.
    assert_deterministic("deepar", CONTEXT, || {
        DeepAr::new(DeepArConfig {
            context: CONTEXT,
            train_window: CONTEXT + HORIZON,
            hidden: 12,
            epochs: 3,
            lr: 2e-3,
            windows_per_epoch: 32,
            num_samples: 40,
            seed: 9,
        })
    });
}

/// The pre-stepper `DeepAr::forecast_quantiles`, transcribed from public
/// pieces only: allocate-per-step `GruCell::apply` / `Dense::apply`, one
/// `StudentT` per step, a clone-and-sort `stats::quantile` per level. Slow
/// and obviously right; the production path must match it bit for bit.
fn deepar_reference(
    cfg: &DeepArConfig,
    weights: &[u8],
    context: &[f64],
    horizon: usize,
    levels: &[f64],
) -> Vec<u64> {
    use rpas::nn::loss::{NU_OFFSET, SIGMA_FLOOR};
    use rpas::nn::{load_weights, Dense, GruCell};
    use rpas::tsmath::special::softplus;
    use rpas::tsmath::{rng, stats, Distribution, StudentT};

    let mut init = rng::seeded(cfg.seed);
    let mut gru = GruCell::new(1, cfg.hidden, &mut init);
    let mut head = Dense::new(cfg.hidden, 3, &mut init);
    load_weights(&mut [&mut gru, &mut head], weights).expect("weights match config");

    let ctx = &context[context.len().saturating_sub(cfg.context)..];
    let m = stats::mean(ctx);
    let sd = stats::std_dev(ctx);
    let sd = if sd.is_nan() || sd < 1e-6 { 1e-6 } else { sd };
    let zctx: Vec<f64> = ctx.iter().map(|v| (v - m) / sd).collect();
    let mut h0 = gru.init_state();
    for z in &zctx[..zctx.len() - 1] {
        h0 = gru.apply(&[*z], &h0);
    }

    let mut r = rng::seeded(rng::child_seed(cfg.seed, 0x5a5a));
    let mut paths = vec![vec![0.0; cfg.num_samples]; horizon];
    for s in 0..cfg.num_samples {
        let mut h = h0.clone();
        let mut prev = zctx[zctx.len() - 1];
        for col in paths.iter_mut() {
            h = gru.apply(&[prev], &h);
            let out = head.apply(&h);
            let dist =
                StudentT::new(out[0], softplus(out[1]) + SIGMA_FLOOR, NU_OFFSET + softplus(out[2]));
            prev = dist.sample(&mut r);
            col[s] = prev;
        }
    }
    paths
        .iter()
        .flat_map(|col| levels.iter().map(|&l| (stats::quantile(col, l) * sd + m).to_bits()))
        .collect()
}

#[test]
fn deepar_matches_reference_sampling_loop() {
    // hidden 12 = one 8-row block + a 4-row tail of the stepper's kernel.
    let cfg = DeepArConfig {
        context: CONTEXT,
        train_window: CONTEXT + HORIZON,
        hidden: 12,
        epochs: 3,
        lr: 2e-3,
        windows_per_epoch: 32,
        num_samples: 40,
        seed: 9,
    };
    let (train, test) = fixed_series();
    let mut model = DeepAr::new(cfg.clone());
    model.fit(&train).expect("fit");
    let weights = model.export_weights().expect("fitted");
    // A context longer than, equal to, and shorter than `cfg.context`.
    for ctx_len in [CONTEXT + 7, CONTEXT, 5] {
        let ctx = &test[..ctx_len];
        let fast = model.forecast_quantiles(ctx, HORIZON, &SCALING_LEVELS).expect("forecast");
        assert_eq!(
            forecast_bits(&fast),
            deepar_reference(&cfg, &weights, ctx, HORIZON, &SCALING_LEVELS),
            "context length {ctx_len}"
        );
    }
}

/// `Tft::forecast_quantiles` before its inference paths, transcribed from
/// public pieces only: the allocate-per-call `Dense::apply` /
/// `LstmCell::apply`, the caching `GatedResidualNetwork::forward`, all `T`
/// rows of `MultiHeadAttention::forward` of which the head reads the last,
/// the sinusoidal positional encoding and the grid decode. `None` where the
/// model must refuse: a context shorter than `cfg.context`.
fn tft_reference(
    cfg: &TftConfig,
    weights: &[u8],
    context: &[f64],
    horizon: usize,
) -> Option<Vec<u64>> {
    use rpas::nn::{
        load_weights, Dense, GatedResidualNetwork, Layer, LstmCell, MultiHeadAttention, Param,
    };
    use rpas::tsmath::{rng, Matrix};

    /// `TftNet`'s layers in its `visit_params` order: one snapshot layer.
    struct Net {
        input_proj: Dense,
        lstm: LstmCell,
        grn_enrich: GatedResidualNetwork,
        attn: MultiHeadAttention,
        grn_post: GatedResidualNetwork,
        head: Dense,
    }
    impl Layer for Net {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            self.input_proj.visit_params(f);
            self.lstm.visit_params(f);
            self.grn_enrich.visit_params(f);
            self.attn.visit_params(f);
            self.grn_post.visit_params(f);
            self.head.visit_params(f);
        }
        fn clear_cache(&mut self) {}
    }

    let d = cfg.d_model;
    let mut init = rng::seeded(cfg.seed);
    let mut net = Net {
        input_proj: Dense::new(1, d, &mut init),
        lstm: LstmCell::new(d, d, &mut init),
        grn_enrich: GatedResidualNetwork::new(d, d, d, &mut init),
        attn: MultiHeadAttention::new(d, cfg.heads, true, &mut init),
        grn_post: GatedResidualNetwork::new(d, d, d, &mut init),
        head: Dense::new(d, cfg.horizon * cfg.quantiles.len(), &mut init),
    };
    let [mean, std] = load_weights(&mut [&mut net], weights).expect("weights match config")[..]
    else {
        panic!("a TFT snapshot carries its scaler");
    };

    if context.len() < cfg.context {
        return None;
    }
    let zctx: Vec<f64> =
        context[context.len() - cfg.context..].iter().map(|v| (v - mean) / std).collect();
    let mut state = net.lstm.init_state();
    let mut rows = Vec::new();
    for (t, &z) in zctx.iter().enumerate() {
        let mut e = net.input_proj.apply(&[z]);
        for (i, v) in e.iter_mut().enumerate() {
            let angle = t as f64 / 10_000f64.powf(2.0 * (i / 2) as f64 / d as f64);
            *v += if i % 2 == 0 { angle.sin() } else { angle.cos() };
        }
        state = net.lstm.apply(&e, &state);
        rows.push(net.grn_enrich.forward(&state.h));
    }
    let x = Matrix::from_rows(&rows);
    let last = cfg.context - 1;
    let a = net.attn.forward(&x);
    let summed: Vec<f64> = a.row(last).iter().zip(x.row(last)).map(|(a, x)| a + x).collect();
    let out = net.head.apply(&net.grn_post.forward(&summed));

    let nq = cfg.quantiles.len();
    let grid = Matrix::from_vec(
        horizon,
        nq,
        out[..horizon * nq].iter().map(|z| z * std + mean).collect(),
    );
    Some(forecast_bits(&QuantileForecast::new(cfg.quantiles.clone(), grid).expect("finite head")))
}

#[test]
fn tft_matches_reference_forward() {
    // d 12 = one 8-row block + a 4-row tail of the k-major kernel.
    let cfg = TftConfig {
        context: CONTEXT,
        horizon: HORIZON,
        d_model: 12,
        heads: 3,
        quantiles: SCALING_LEVELS.to_vec(),
        epochs: 2,
        lr: 2e-3,
        windows_per_epoch: 16,
        seed: 9,
    };
    let (train, test) = fixed_series();
    let mut model = Tft::new(cfg.clone());
    model.fit(&train).expect("fit");
    let weights = model.export_weights().expect("fitted");
    // A context longer than, equal to, and shorter than `cfg.context`.
    for ctx_len in [CONTEXT + 7, CONTEXT, 5] {
        let ctx = &test[..ctx_len];
        let fast = model.forecast_quantiles(ctx, HORIZON, &SCALING_LEVELS);
        assert_eq!(
            fast.as_ref().ok().map(forecast_bits),
            tft_reference(&cfg, &weights, ctx, HORIZON),
            "context length {ctx_len}: {fast:?}"
        );
    }
}

/// The loop every Gaussian forecaster (`LastValue`, `SeasonalNaive`,
/// `Arima`, `HoltWinters`) ran before `QuantileForecast::gaussian`:
/// `norm_quantile` inside both loops, one call per cell. `step(h)` is the
/// model's `(center, sd)` at step `h`, worked out from public pieces.
fn per_cell_reference(
    levels: &[f64],
    horizon: usize,
    mut step: impl FnMut(usize) -> (f64, f64),
) -> Vec<u64> {
    use rpas::tsmath::special::norm_quantile;
    let mut bits = Vec::with_capacity(horizon * levels.len());
    for h in 0..horizon {
        let (center, sd) = step(h);
        for &l in levels {
            bits.push((center + sd * norm_quantile(l)).to_bits());
        }
    }
    bits
}

/// A level set: one level, the planner's seven, or a drawn ladder.
fn drawn_levels(g: &mut Gen) -> Vec<f64> {
    match g.usize_in(0, 3) {
        0 => vec![g.f64_in(0.01, 0.99)],
        1 => SCALING_LEVELS.to_vec(),
        _ => {
            let n = g.usize_in(2, 10);
            (1..=n).map(|i| (i as f64 - g.f64_in(0.05, 0.95)) / n as f64).collect()
        }
    }
}

/// A seasonal series with a drawn trend; one case in four has no noise
/// at all, so a residual spread lands on its `1e-9` floor.
fn drawn_series(g: &mut Gen, period: usize, min_len: usize, max_len: usize) -> Vec<f64> {
    let len = g.usize_in(min_len, max_len);
    let noise = if g.usize_in(0, 4) == 0 { 0.0 } else { g.f64_in(0.01, 25.0) };
    let slope = if noise == 0.0 { 0.0 } else { g.f64_in(-0.2, 0.2) };
    let shape: Vec<f64> = (0..period).map(|_| g.f64_in(20.0, 200.0)).collect();
    (0..len).map(|t| shape[t % period] + slope * t as f64 + noise * g.f64_in(-1.0, 1.0)).collect()
}

#[test]
fn naive_forecasters_match_the_per_cell_loop() {
    use rpas::tsmath::stats;
    forall("naive_forecasters_match_the_per_cell_loop", 96, |g| {
        let period = g.usize_in(1, 13);
        let horizon = g.usize_in(1, 3 * period + 2); // past one period too
        let levels = drawn_levels(g);
        // Two seasons or more fit on seasonal residuals, fewer on one-step differences.
        let series = drawn_series(g, period, 3, 4 * period + 3);

        let mut lv = LastValue::new();
        Forecaster::fit(&mut lv, &series).expect("three samples fit");
        let sigma1 = stats::std_dev(&stats::difference(&series, 1)).max(1e-9);
        let last = *series.last().expect("non-empty");
        let got = lv.forecast_quantiles(&series, horizon, &levels).expect("forecast");
        let want =
            per_cell_reference(&levels, horizon, |h| (last, sigma1 * ((h + 1) as f64).sqrt()));
        prop_assert!(forecast_bits(&got) == want, "last-value differs from the per-cell loop");

        let mut sn = SeasonalNaive::new(period);
        sn.fit(&series).expect("two samples fit");
        let sigma = sn.sigma().expect("fitted");
        // A full season of context repeats it; a shorter one falls back to flat.
        let mut ctx_lens = Vec::new();
        if series.len() >= period {
            ctx_lens.push(g.usize_in(period, series.len() + 1));
        }
        if period.min(series.len() + 1) > 1 {
            ctx_lens.push(g.usize_in(1, period.min(series.len() + 1)));
        }
        for ctx_len in ctx_lens {
            let ctx = &series[series.len() - ctx_len..];
            let got = sn.forecast_quantiles(ctx, horizon, &levels).expect("forecast");
            let want = if ctx_len < period {
                per_cell_reference(&levels, horizon, |_| (last, sigma))
            } else {
                let season = &ctx[ctx_len - period..];
                per_cell_reference(&levels, horizon, |h| (season[h % period], sigma))
            };
            prop_assert!(
                forecast_bits(&got) == want,
                "seasonal-naive differs from the per-cell loop at context {ctx_len}"
            );
        }
        Ok(())
    });
}

#[test]
fn holt_winters_matches_the_per_cell_loop() {
    use rpas::tsmath::stats;
    forall("holt_winters_matches_the_per_cell_loop", 48, |g| {
        let m = g.usize_in(2, 13);
        let cfg = HoltWintersConfig {
            period: m,
            alpha: g.f64_in(0.05, 0.9),
            beta: g.f64_in(0.01, 0.5),
            gamma: g.f64_in(0.05, 0.9),
            damping: g.f64_in(0.8, 1.0),
        };
        let horizon = g.usize_in(1, 3 * m + 2);
        let levels = drawn_levels(g);
        let series = drawn_series(g, m, 2 * m + 1, 6 * m + 2);
        let ctx = &series[series.len() - g.usize_in(2 * m + 1, series.len() + 1)..];

        // The smoothing recursion, transcribed: final state and residuals.
        let smooth = |xs: &[f64]| {
            let first = stats::mean(&xs[..m]);
            let (mut level, mut trend) = (first, (stats::mean(&xs[m..2 * m]) - first) / m as f64);
            let mut seasonal: Vec<f64> = xs[..m].iter().map(|x| x - first).collect();
            let mut residuals = Vec::new();
            for (t, &y) in xs.iter().enumerate() {
                let i = t % m;
                residuals.push(y - (level + cfg.damping * trend + seasonal[i]));
                let new_level = cfg.alpha * (y - seasonal[i])
                    + (1.0 - cfg.alpha) * (level + cfg.damping * trend);
                let new_trend =
                    cfg.beta * (new_level - level) + (1.0 - cfg.beta) * cfg.damping * trend;
                seasonal[i] = cfg.gamma * (y - new_level) + (1.0 - cfg.gamma) * seasonal[i];
                (level, trend) = (new_level, new_trend);
            }
            (level, trend, seasonal, residuals)
        };
        let residuals = smooth(&series).3;
        let residual_std = stats::std_dev(&residuals[m.min(residuals.len() - 1)..]).max(1e-9);
        let (level, trend, seasonal, _) = smooth(ctx);
        let (mut damped_sum, mut damp) = (0.0, cfg.damping);
        let want = per_cell_reference(&levels, horizon, |h| {
            damped_sum += damp;
            damp *= cfg.damping;
            let point = level + damped_sum * trend + seasonal[(ctx.len() % m + h) % m];
            (point, residual_std * (1.0 + h as f64 * cfg.alpha.powi(2)).sqrt())
        });

        let mut hw = HoltWinters::new(cfg);
        Forecaster::fit(&mut hw, &series).expect("two seasons and a sample fit");
        let got = hw.forecast_quantiles(ctx, horizon, &levels).expect("forecast");
        prop_assert_eq!(forecast_bits(&got), want);
        Ok(())
    });
}

#[test]
fn arima_matches_the_per_cell_loop() {
    use rpas::tsmath::stats;
    forall("arima_matches_the_per_cell_loop", 48, |g| {
        let cfg = ArimaConfig { p: g.usize_in(1, 4), d: g.usize_in(0, 2), q: g.usize_in(0, 3) };
        let d = cfg.d;
        let horizon = g.usize_in(1, 40);
        let levels = drawn_levels(g);
        let period = g.usize_in(2, 13);
        let noise = g.f64_in(0.5, 20.0);
        let series: Vec<f64> = drawn_series(g, period, 60, 200)
            .iter()
            .map(|x| x + noise * g.f64_in(-1.0, 1.0))
            .collect();
        let mut model = Arima::new(cfg);
        Forecaster::fit(&mut model, &series).expect("sixty noisy samples fit");
        let ctx = &series[series.len() - g.usize_in(d + cfg.p.max(cfg.q) + 2, 50)..];

        // What `fit` keeps beside the public coefficients.
        let (phi, theta) = (model.phi(), model.theta());
        let sigma2 = model.sigma2().expect("fitted");
        let trained = stats::difference(&series, d);
        let mean = stats::mean(&trained);
        let centered: Vec<f64> = trained.iter().map(|v| v - mean).collect();
        let marginal_var = stats::variance(&centered).max(sigma2);

        // Residuals over the context, then the iterated point path.
        let mut z: Vec<f64> = stats::difference(ctx, d).iter().map(|v| v - mean).collect();
        let n = z.len();
        let mut e = vec![0.0; n];
        for t in 0..n {
            let mut pred = 0.0;
            for (i, &ph) in phi.iter().enumerate() {
                if t > i {
                    pred += ph * z[t - 1 - i];
                }
            }
            for (j, &th) in theta.iter().enumerate() {
                if t > j {
                    pred += th * e[t - 1 - j];
                }
            }
            e[t] = z[t] - pred;
        }
        for t in n..n + horizon {
            let mut pred = 0.0;
            for (i, &ph) in phi.iter().enumerate() {
                if t > i {
                    pred += ph * z[t - 1 - i];
                }
            }
            for (j, &th) in theta.iter().enumerate() {
                if t > j && t - 1 - j < n {
                    pred += th * e[t - 1 - j];
                }
            }
            z.push(pred);
        }
        let diffs: Vec<f64> = z[n..].iter().map(|v| v + mean).collect();
        let heads: Vec<f64> =
            (0..d).map(|j| *stats::difference(ctx, j).last().expect("non-empty")).collect();
        let point = if d == 0 { diffs } else { stats::undifference(&diffs, &heads) };

        // Psi weights, cumulated once per differencing order.
        let mut psi = vec![0.0; horizon];
        psi[0] = 1.0;
        for j in 1..horizon {
            let mut v = if j <= theta.len() { theta[j - 1] } else { 0.0 };
            for (i, &ph) in phi.iter().enumerate() {
                if j > i {
                    v += ph * psi[j - 1 - i];
                }
            }
            psi[j] = v;
        }
        for _ in 0..d {
            for j in 1..horizon {
                psi[j] += psi[j - 1];
            }
        }
        let mut cum = 0.0;
        let want = per_cell_reference(&levels, horizon, |h| {
            cum += psi[h] * psi[h];
            let cap = marginal_var * ((h + 1) as f64).powi(d as i32);
            (point[h], (sigma2 * cum).min(cap).sqrt())
        });

        let got = model.forecast_quantiles(ctx, horizon, &levels).expect("forecast");
        prop_assert!(forecast_bits(&got) == want, "{cfg:?} differs from the per-cell loop");
        Ok(())
    });
}

#[test]
fn tft_is_deterministic() {
    assert_deterministic("tft", CONTEXT, || {
        Tft::new(TftConfig {
            context: CONTEXT,
            horizon: HORIZON,
            d_model: 8,
            heads: 2,
            quantiles: SCALING_LEVELS.to_vec(),
            epochs: 3,
            lr: 2e-3,
            windows_per_epoch: 24,
            seed: 9,
        })
    });
}

#[test]
fn rolling_windows_match_legacy_protocol() {
    // The forecast pass must slice the series by the protocol's index
    // arithmetic: window k forecasts from test[k·h .. k·h + c], the
    // `context` samples ending at c + k·h, against the `horizon` actuals
    // test[c + k·h ..][..h] after them.
    let (train, test) = fixed_series();
    let mut fc = SeasonalNaive::new(STEPS_PER_DAY);
    fc.fit(&train).expect("fit");

    let (c, h) = (STEPS_PER_DAY, HORIZON);
    let spec = RollingSpec::new(c, h);
    let engine = quantile_windows(&fc, &test, spec, &SCALING_LEVELS, &Obs::noop());

    let count = (test.len() - c) / h;
    assert!(count > 0);
    assert_eq!(engine.len(), count, "window count diverged");
    for (k, (engine_qf, engine_actuals)) in engine.iter().enumerate() {
        let ctx = &test[k * h..k * h + c];
        let actuals = &test[c + k * h..][..h];
        let qf = fc.forecast_quantiles(ctx, h, &SCALING_LEVELS).expect("forecast");
        assert_eq!(forecast_bits(engine_qf), forecast_bits(&qf), "window {k} forecast");
        assert_eq!(engine_actuals, actuals, "window {k} actuals");
    }

    // The plan scorer must place window k at step c + k·h.
    let manager = RobustAutoScalingManager::new(THETA, 1, ScalingStrategy::Fixed { tau: 0.9 });
    let report = backtest(&engine, spec, &manager);
    assert_eq!(report.windows.len(), count);
    for (k, w) in report.windows.iter().enumerate() {
        assert_eq!(w.start, c + k * h, "backtest start {k}");
    }
}
