//! Paper-configured model constructors shared by the experiments.

use crate::profile::ExperimentProfile;
use rpas_forecast::{
    Arima, ArimaConfig, DeepAr, DeepArConfig, DistKind, Forecaster, MlpProb, MlpProbConfig,
    MlpQuantile, MlpQuantileConfig, Qb5000, Qb5000Config, Tft, TftConfig,
};

/// ARIMA with the orders used across the experiments.
pub(crate) fn arima() -> Arima {
    Arima::new(ArimaConfig { p: 5, d: 1, q: 1 })
}

/// Probabilistic MLP sized per the profile.
pub(crate) fn mlp(p: &ExperimentProfile, seed: u64) -> MlpProb {
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

/// The MLP backbone trained on TFT's pinball grid (the grid-family
/// ablation's middle row).
pub(crate) fn mlp_quantile(p: &ExperimentProfile, grid: &[f64], seed: u64) -> MlpQuantile {
    MlpQuantile::new(MlpQuantileConfig {
        context: p.context,
        horizon: p.horizon,
        hidden: vec![p.hidden * 2, p.hidden * 2],
        quantiles: grid.to_vec(),
        epochs: p.epochs * 2,
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
pub(crate) fn deepar(p: &ExperimentProfile, seed: u64) -> DeepAr {
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
pub(crate) fn tft(p: &ExperimentProfile, grid: &[f64], seed: u64) -> Tft {
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

/// QB5000 sized per the profile.
pub(crate) fn qb5000(p: &ExperimentProfile, seed: u64) -> Qb5000 {
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

/// `model`, fitted on `train`.
///
/// # Panics
/// Panics if the fit fails (the harness controls series lengths).
#[expect(clippy::expect_used, reason = "an experiment cannot run without its fitted models")]
pub(crate) fn fitted<F: Forecaster>(mut model: F, train: &[f64]) -> F {
    model.fit(train).expect("experiment model fit");
    model
}

/// A fitted forecaster as the experiments hold a list of them.
pub(crate) type Fitted = Box<dyn Forecaster + Send + Sync>;

/// The four Table-I quantile forecasters — ARIMA, MLP, DeepAR, TFT, in
/// that order — fitted on `train` with the given seed and TFT grid.
///
/// # Panics
/// Panics if any fit fails.
pub(crate) fn fit_all_quantile_models(
    p: &ExperimentProfile,
    train: &[f64],
    grid: &[f64],
    seed: u64,
) -> Vec<Fitted> {
    vec![
        Box::new(fitted(arima(), train)),
        Box::new(fitted(mlp(p, seed), train)),
        Box::new(fitted(deepar(p, seed), train)),
        Box::new(fitted(tft(p, grid, seed), train)),
    ]
}
