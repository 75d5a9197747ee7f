//! Cross-crate determinism tests: the workspace guarantees that one seed
//! fixes every downstream artifact. For each forecaster family, fitting
//! and forecasting twice from the same seed must produce **byte-identical**
//! `QuantileForecast` values and `CapacityPlan` allocations — no
//! `HashMap` iteration order, thread timing, or global RNG state may leak
//! into results.
//!
//! Also pins the `rpas_core::rolling` engine to the legacy windowing
//! semantics (`rpas_traces::RollingWindows`) on a fixed trace, so the
//! rolling-origin consolidation cannot silently shift window boundaries.

use rpas::core::{
    backtest_quantile, forecast_windows, plan_windows, RobustAutoScalingManager, RollingSpec,
    ScalingStrategy,
};
use rpas::forecast::{
    Arima, ArimaConfig, DeepAr, DeepArConfig, DistKind, Forecaster, MlpProb, MlpProbConfig,
    QuantileForecast, SeasonalNaive, Tft, TftConfig, SCALING_LEVELS,
};
use rpas::traces::{alibaba_like, RollingWindows, STEPS_PER_DAY};

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
    // forecast_windows (now on rpas_core::rolling) must slice the series
    // exactly like the legacy rpas_traces::RollingWindows protocol it
    // replaced: window k forecasts from the `context` samples ending at
    // `context + k*horizon`, against the `horizon` actuals after it.
    let (train, test) = fixed_series();
    let mut fc = SeasonalNaive::new(STEPS_PER_DAY);
    fc.fit(&train).expect("fit");

    let ctx_len = STEPS_PER_DAY;
    let engine = forecast_windows(&fc, &test, ctx_len, HORIZON, &SCALING_LEVELS);

    let legacy = RollingWindows::new(&test, ctx_len, HORIZON);
    assert_eq!(engine.len(), legacy.len(), "window count diverged");
    for k in 0..legacy.len() {
        let (ctx, actuals) = legacy.window(k);
        let qf = fc.forecast_quantiles(ctx, HORIZON, &SCALING_LEVELS).expect("forecast");
        assert_eq!(forecast_bits(&engine[k].0), forecast_bits(&qf), "window {k} forecast");
        assert_eq!(engine[k].1, actuals, "window {k} actuals");
    }

    // plan_windows and backtest_quantile must agree on window offsets too.
    let manager = RobustAutoScalingManager::new(THETA, 1, ScalingStrategy::Fixed { tau: 0.9 });
    let planned =
        plan_windows(&fc, &test, RollingSpec::new(ctx_len, HORIZON), &manager, &SCALING_LEVELS);
    let backtest = backtest_quantile(&fc, &test, ctx_len, HORIZON, &manager, &SCALING_LEVELS);
    assert_eq!(planned.len(), legacy.len());
    assert_eq!(backtest.windows.len(), legacy.len());
    for (k, (w, b)) in planned.iter().zip(&backtest.windows).enumerate() {
        let expected_start = ctx_len + k * HORIZON;
        assert_eq!(w.start, expected_start, "plan_windows start {k}");
        assert_eq!(b.start, expected_start, "backtest start {k}");
    }
}
