//! Paper-configured model constructors shared by the experiment binaries.

use crate::profile::ExperimentProfile;
use rpas_forecast::{
    Arima, ArimaConfig, DeepAr, DeepArConfig, DistKind, Forecaster, MlpProb, MlpProbConfig,
    Qb5000, Qb5000Config, Tft, TftConfig,
};

/// ARIMA with the orders used across the experiments.
pub fn arima() -> Arima {
    Arima::new(ArimaConfig { p: 5, d: 1, q: 1 })
}

/// Probabilistic MLP sized per the profile.
pub fn mlp(p: &ExperimentProfile, seed: u64) -> MlpProb {
    MlpProb::new(MlpProbConfig {
        context: p.context,
        horizon: p.horizon,
        hidden: vec![p.hidden * 2, p.hidden * 2],
        dist: DistKind::StudentT,
        epochs: p.epochs * 2, // MLP epochs are far cheaper than the RNNs'
        lr: 1e-3,
        windows_per_epoch: p.windows_per_epoch,
        seed,
    })
}

/// DeepAR sized per the profile.
///
/// The autoregressive family needs a longer teacher-forcing window than
/// the direct models — the unrolled pass must cover more than one seasonal
/// period before the forecast region for the hidden state to carry the
/// phase — and benefits from more capacity/epochs (calibrated in
/// EXPERIMENTS.md).
pub fn deepar(p: &ExperimentProfile, seed: u64) -> DeepAr {
    DeepAr::new(DeepArConfig {
        context: p.context,
        train_window: p.context + 3 * p.horizon,
        hidden: p.hidden * 3 / 2,
        epochs: p.epochs * 2,
        lr: 1e-3,
        windows_per_epoch: p.windows_per_epoch * 4 / 3,
        num_samples: p.deepar_samples,
        seed,
    })
}

/// TFT sized per the profile, trained on the given quantile grid.
/// Pinball-loss training converges slower than NLL, so TFT gets a larger
/// epoch budget (calibrated in EXPERIMENTS.md).
pub fn tft(p: &ExperimentProfile, grid: &[f64], seed: u64) -> Tft {
    Tft::new(TftConfig {
        context: p.context,
        horizon: p.horizon,
        d_model: p.hidden,
        heads: 4,
        quantiles: grid.to_vec(),
        epochs: p.epochs * 3,
        lr: 1e-3,
        windows_per_epoch: p.windows_per_epoch,
        seed,
    })
}

/// TFT trained to output only the 0.5 quantile — the paper's **TFT-point**.
pub fn tft_point(p: &ExperimentProfile, seed: u64) -> Tft {
    tft(p, &[0.5], seed)
}

/// QB5000 sized per the profile.
pub fn qb5000(p: &ExperimentProfile, seed: u64) -> Qb5000 {
    Qb5000::new(Qb5000Config {
        context: p.context,
        horizon: p.horizon,
        hidden: p.hidden,
        epochs: p.epochs,
        lr: 1e-3,
        windows_per_epoch: p.windows_per_epoch,
        kernel_pairs: 256,
        seed,
    })
}

/// All four Table-I quantile forecasters, fitted on one training series.
pub struct FittedQuantileModels {
    /// ARIMA baseline.
    pub arima: Arima,
    /// Probabilistic MLP baseline.
    pub mlp: MlpProb,
    /// DeepAR (parametric-distribution family).
    pub deepar: DeepAr,
    /// TFT (quantile-grid family).
    pub tft: Tft,
}

/// Fit all four models on `train` with the given seed and TFT grid.
///
/// # Panics
/// Panics if any fit fails (the harness controls series lengths).
#[expect(clippy::expect_used, reason = "an experiment cannot run without its fitted models")]
pub fn fit_all_quantile_models(
    p: &ExperimentProfile,
    train: &[f64],
    grid: &[f64],
    seed: u64,
) -> FittedQuantileModels {
    let mut a = arima();
    a.fit(train).expect("arima fit");
    let mut m = mlp(p, seed);
    m.fit(train).expect("mlp fit");
    let mut d = deepar(p, seed);
    d.fit(train).expect("deepar fit");
    let mut t = tft(p, grid, seed);
    t.fit(train).expect("tft fit");
    FittedQuantileModels { arima: a, mlp: m, deepar: d, tft: t }
}
