//! Hostile inputs, one table for every window-trained forecaster: a
//! non-finite value anywhere in the context window the model reads, or a
//! non-finite head output from diverged weights, is answered with
//! `Err(ForecastError::Unhealthy(_))` — not a panic, not an `Ok` carrying
//! NaN, and not a finite-looking number the network happened to squash the
//! bad cell into. A bad value the window has already slid past changes
//! nothing. ARIMA and Holt-Winters take the context rows only: they read
//! all of the context they are given and have no weights to diverge.

use rpas_forecast::{
    Arima, ArimaConfig, DeepAr, DeepArConfig, DistKind, ForecastError, Forecaster, HoltWinters,
    HoltWintersConfig, LastValue, MlpProb, MlpProbConfig, MlpQuantile, MlpQuantileConfig,
    PointForecaster, Qb5000, Qb5000Config, SeasonalNaive, Tft, TftConfig,
};
use rpas_tsmath::rng::{seeded, standard_normal};
use std::panic::{catch_unwind, AssertUnwindSafe};

const CONTEXT: usize = 12;
const HORIZON: usize = 4;
const LEVELS: [f64; 3] = [0.1, 0.5, 0.9];

fn series(n: usize, seed: u64) -> Vec<f64> {
    let mut r = seeded(seed);
    (0..n)
        .map(|t| {
            70.0 + 12.0 * (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin()
                + 1.5 * standard_normal(&mut r)
        })
        .collect()
}

/// A fitted model reduced to "context in, flat forecast cells out".
type Predict = Box<dyn Fn(&[f64]) -> Result<Vec<f64>, ForecastError>>;

fn quantile_cells(m: impl Forecaster + 'static) -> Predict {
    Box::new(move |ctx| {
        m.forecast_quantiles(ctx, HORIZON, &LEVELS).map(|qf| qf.values().data().to_vec())
    })
}

/// A snapshot whose last scalar — the last bias of the output head in
/// every exporting model's layer order — is NaN.
fn poisoned(mut snapshot: Vec<u8>) -> Vec<u8> {
    let at = snapshot.len() - 8;
    snapshot[at..].copy_from_slice(&f64::NAN.to_le_bytes());
    snapshot
}

/// A fitted exporting model and its twin restored from a poisoned snapshot.
fn fitted_and_poisoned<M: Forecaster + 'static>(
    data: &[f64],
    new: impl Fn() -> M,
    import: fn(&mut M, &[u8]) -> Result<(), ForecastError>,
) -> (Predict, Predict) {
    let (mut good, mut bad) = (new(), new());
    good.fit(data).expect("fit");
    import(&mut bad, &poisoned(good.export_weights().expect("fitted"))).expect("import");
    (quantile_cells(good), quantile_cells(bad))
}

fn mlp_prob(dist: DistKind) -> MlpProb {
    MlpProb::new(MlpProbConfig {
        context: CONTEXT,
        horizon: HORIZON,
        hidden: vec![8],
        dist,
        epochs: 2,
        lr: 2e-3,
        windows_per_epoch: 8,
        seed: 1,
    })
}

fn mlp_quantile() -> MlpQuantile {
    MlpQuantile::new(MlpQuantileConfig {
        context: CONTEXT,
        horizon: HORIZON,
        hidden: vec![8],
        quantiles: LEVELS.to_vec(),
        epochs: 2,
        lr: 2e-3,
        windows_per_epoch: 8,
        seed: 2,
    })
}

fn deepar() -> DeepAr {
    DeepAr::new(DeepArConfig {
        context: CONTEXT,
        train_window: 24,
        hidden: 8,
        epochs: 2,
        lr: 2e-3,
        windows_per_epoch: 8,
        num_samples: 20,
        seed: 3,
    })
}

fn tft() -> Tft {
    Tft::new(TftConfig {
        context: CONTEXT,
        horizon: HORIZON,
        d_model: 8,
        heads: 2,
        quantiles: LEVELS.to_vec(),
        epochs: 2,
        lr: 2e-3,
        windows_per_epoch: 8,
        seed: 4,
    })
}

fn qb5000(lr: f64) -> Qb5000 {
    Qb5000::new(Qb5000Config {
        context: CONTEXT,
        horizon: HORIZON,
        hidden: 6,
        epochs: 2,
        lr,
        windows_per_epoch: 8,
        kernel_pairs: 32,
        seed: 5,
    })
}

fn arima() -> Arima {
    Arima::new(ArimaConfig { p: 2, d: 1, q: 1 })
}

fn holt_winters() -> HoltWinters {
    HoltWinters::new(HoltWintersConfig { period: 4, ..Default::default() })
}

/// `(name, healthy model, the same model with diverged weights)`; `None`
/// for a model that reads its whole context and has no weights.
fn models(data: &[f64]) -> Vec<(&'static str, Predict, Option<Predict>)> {
    let mut out: Vec<(&'static str, Predict, Option<Predict>)> = Vec::new();
    let mut push = |name, (good, bad)| out.push((name, good, Some(bad)));

    for (name, dist) in [("mlp-gaussian", DistKind::Gaussian), ("mlp-student-t", DistKind::StudentT)]
    {
        push(name, fitted_and_poisoned(data, || mlp_prob(dist), MlpProb::import_weights));
    }
    push("mlp-quantile", fitted_and_poisoned(data, mlp_quantile, MlpQuantile::import_weights));
    push("deepar", fitted_and_poisoned(data, deepar, DeepAr::import_weights));
    push("tft", fitted_and_poisoned(data, tft, Tft::import_weights));

    // QB5000 exports nothing, so its LSTM is made to diverge in training:
    // one Adam step at a NaN learning rate leaves every weight NaN.
    let (mut good, mut bad) = (qb5000(2e-3), qb5000(f64::NAN));
    good.fit(data).expect("fit");
    bad.fit(data).expect("fit");
    let good: Predict = Box::new(move |ctx| good.forecast(ctx, HORIZON));
    push("qb5000", (good, Box::new(move |ctx| bad.forecast(ctx, HORIZON))));

    let mut arima = arima();
    arima.fit(data).expect("fit");
    out.push(("arima", quantile_cells(arima), None));
    let mut hw = holt_winters();
    hw.fit(data).expect("fit");
    out.push(("holt-winters", quantile_cells(hw), None));
    out
}

/// One cell of the table: what the model answered.
fn outcome(predict: &Predict, ctx: &[f64]) -> String {
    match catch_unwind(AssertUnwindSafe(|| predict(ctx))) {
        Err(_) => "panic".into(),
        Ok(Err(ForecastError::Unhealthy(msg))) => format!("Err(Unhealthy): {msg}"),
        Ok(Err(e)) => format!("Err({e})"),
        Ok(Ok(cells)) if cells.iter().all(|v| v.is_finite()) => "Ok(finite)".into(),
        Ok(Ok(_)) => "Ok(non-finite)".into(),
    }
}

#[test]
fn every_window_model_answers_unhealthy_on_hostile_input() {
    let data = series(300, 7);
    let clean = &data[100..100 + CONTEXT];
    let mut table = String::new();
    let mut wrong = 0;

    for (name, good, diverged) in models(&data) {
        let baseline = good(clean).expect("clean context forecasts");
        let mut rows: Vec<(String, String)> = Vec::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0, 5, CONTEXT - 1] {
                let mut ctx = clean.to_vec();
                ctx[at] = bad;
                rows.push((format!("{bad} at ctx[{at}]"), outcome(&good, &ctx)));
            }
        }
        if let Some(diverged) = &diverged {
            rows.push(("non-finite head output".into(), outcome(diverged, clean)));
        }
        for (case, got) in rows {
            if !got.starts_with("Err(Unhealthy)") {
                wrong += 1;
            }
            table.push_str(&format!("{name:14} {case:24} {got}\n"));
        }

        // A bad value the window has already slid past changes nothing
        // (a whole-context model has no such position).
        let slid_past: &[f64] =
            if diverged.is_some() { &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY] } else { &[] };
        for &bad in slid_past {
            let mut long = vec![bad];
            long.extend_from_slice(clean);
            let got = good(&long);
            let same = got.as_ref().is_ok_and(|cells| {
                cells.iter().map(|v| v.to_bits()).eq(baseline.iter().map(|v| v.to_bits()))
            });
            if !same {
                wrong += 1;
            }
            table.push_str(&format!("{name:14} {:24} same={same}\n", format!("{bad} before window")));
        }
    }
    assert_eq!(wrong, 0, "{wrong} cells are not Err(Unhealthy) / unchanged:\n{table}");
    // The messages name the model and what was not finite; TFT's and
    // DeepAR's predate the shared guard and keep their text.
    for line in [
        "mlp-gaussian   NaN at ctx[0]            Err(Unhealthy): mlp: non-finite value in context",
        "mlp-quantile   non-finite head output   Err(Unhealthy): mlp-quantile: non-finite head output",
        "deepar         inf at ctx[5]            Err(Unhealthy): deepar: non-finite value in context",
        "deepar         non-finite head output   Err(Unhealthy): deepar: non-finite head output [",
        "tft            -inf at ctx[11]          Err(Unhealthy): tft: non-finite value in context",
        "tft            non-finite head output   Err(Unhealthy): tft: non-finite head output\n",
        "qb5000         non-finite head output   Err(Unhealthy): qb5000: non-finite ensemble output",
        "arima          NaN at ctx[11]           Err(Unhealthy): arima: non-finite value in context",
        "holt-winters   -inf at ctx[0]           Err(Unhealthy): holt-winters: non-finite value in context",
    ] {
        assert!(table.contains(line), "missing {line:?} in:\n{table}");
    }
}

/// A fresh model's `fit`, reduced to "training series in, verdict out".
type Fit = Box<dyn Fn(&[f64]) -> Result<(), ForecastError>>;

fn fit_of<M: Forecaster + 'static>(new: impl Fn() -> M + 'static) -> Fit {
    Box::new(move |series| new().fit(series))
}

/// Every model in the crate, each as its `fit`.
fn fits() -> Vec<(&'static str, Fit)> {
    vec![
        ("mlp-gaussian", fit_of(|| mlp_prob(DistKind::Gaussian))),
        ("mlp-student-t", fit_of(|| mlp_prob(DistKind::StudentT))),
        ("mlp-quantile", fit_of(mlp_quantile)),
        ("deepar", fit_of(deepar)),
        ("tft", fit_of(tft)),
        ("qb5000", Box::new(|series| qb5000(2e-3).fit(series))),
        ("arima", fit_of(arima)),
        ("holt-winters", fit_of(holt_winters)),
        ("seasonal-naive", fit_of(|| SeasonalNaive::new(CONTEXT))),
        ("last-value", fit_of(LastValue::new)),
    ]
}

#[test]
fn every_fit_refuses_a_non_finite_training_value() {
    // One bad sample in the middle of a series that fits cleanly: the
    // Student-t MLP used to panic in `ln_gamma`, MLP-quantile and ARIMA to
    // fit and then forecast NaN, TFT to train its whole budget on NaN.
    let data = series(300, 7);
    let mut table = String::new();
    let mut wrong = 0;
    for (name, fit) in fits() {
        assert_eq!(fit(&data), Ok(()), "{name} fits the clean series");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut poisoned = data.clone();
            poisoned[100] = bad;
            let got = match catch_unwind(AssertUnwindSafe(|| fit(&poisoned))) {
                Err(_) => "panic".into(),
                Ok(Err(ForecastError::Unhealthy(msg))) => format!("Err(Unhealthy): {msg}"),
                Ok(Err(e)) => format!("Err({e})"),
                Ok(Ok(())) => "Ok".into(),
            };
            if !(got.starts_with("Err(Unhealthy)")
                && got.ends_with(": non-finite value in training series"))
            {
                wrong += 1;
            }
            table.push_str(&format!("{name:14} {:14} {got}\n", format!("{bad} at [100]")));
        }
    }
    assert_eq!(wrong, 0, "{wrong} fits did not refuse the series:\n{table}");
    // The message names the model as its forecasts do.
    for line in [
        "mlp-student-t  NaN at [100]   Err(Unhealthy): mlp: non-finite value in training series",
        "tft            inf at [100]   Err(Unhealthy): tft: non-finite value in training series",
        "qb5000         -inf at [100]  Err(Unhealthy): qb5000: non-finite value in training series",
        "last-value     NaN at [100]   Err(Unhealthy): last-value: non-finite value in training series",
    ] {
        assert!(table.contains(line), "missing {line:?} in:\n{table}");
    }
}
