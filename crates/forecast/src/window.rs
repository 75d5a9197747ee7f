//! What every window-trained model shares: [`MlpProb`](crate::MlpProb),
//! [`MlpQuantile`](crate::MlpQuantile), [`Tft`](crate::Tft),
//! [`DeepAr`](crate::DeepAr) and [`Qb5000`](crate::Qb5000)'s LSTM are all
//! fitted on windows sampled from the training series, all forecast from the
//! tail of a context, and (QB5000 aside) all persist as a weight snapshot.
//! Each of those is written here once; a model supplies only its network.

use crate::types::{require_len, ForecastError};
use rpas_nn::{Adam, Layer};
use rpas_obs::Event;
use rpas_traces::WindowDataset;
use rpas_tsmath::rng::{self, Rng64};
use rpas_tsmath::stats::Standardizer;

/// Per-layer gradient-norm ceiling of every optimiser step.
pub(crate) const CLIP_NORM: f64 = 5.0;

/// What every `fit` checks first: `SeriesTooShort` unless the training
/// series holds `needed` samples, then
/// `Unhealthy("<model>: non-finite value in training series")` unless every
/// one is finite — one NaN would otherwise panic a loss, poison a scaler
/// or train a whole budget on NaN.
pub(crate) fn require_series(
    model: &str,
    series: &[f64],
    needed: usize,
) -> Result<(), ForecastError> {
    require_len(series, needed)?;
    require_finite(model, "value in training series", series)
}

/// The global z-score of a training series and the series under it, for a
/// model trained on `(context, horizon)` windows (more than one must fit).
pub(crate) fn standardize(
    model: &str,
    series: &[f64],
    context: usize,
    horizon: usize,
) -> Result<(Standardizer, Vec<f64>), ForecastError> {
    require_series(model, series, context + horizon + 1)?;
    let scaler = Standardizer::fit(series);
    let z = scaler.transform_vec(series);
    Ok((scaler, z))
}

/// One epoch's audit numbers: mean loss and mean pre-clip gradient norm
/// over the epoch's windows.
pub(crate) struct EpochStats {
    epoch: usize,
    loss: f64,
    grad_norm: f64,
}

impl EpochStats {
    /// Fill a `train.<model>/epoch` event.
    pub(crate) fn record(&self, e: &mut Event) {
        e.field("epoch", self.epoch).field("loss", self.loss).field("grad_norm", self.grad_norm);
    }
}

/// The sampled-window training loop: `epochs × windows_per_epoch` windows
/// drawn uniformly from `ds`, one `step` each.
///
/// `step(context, target, loss)` runs forward, loss, backward, clip and the
/// optimiser step for one window; it adds the window's loss terms straight
/// into `loss` (the epoch accumulator — so the float association is the
/// model's, not the loop's) and returns its pre-clip gradient norm.
/// `on_epoch` receives the epoch means; models with an audit trail emit
/// their `train.<model>/epoch` event from it.
///
/// The draws come from the caller's `r`, one `uniform_open` per window:
/// models that initialise their weights from the same stream keep doing so
/// before the first draw.
pub(crate) fn train(
    ds: &WindowDataset<'_>,
    epochs: usize,
    windows_per_epoch: usize,
    r: &mut Rng64,
    mut step: impl FnMut(&[f64], &[f64], &mut f64) -> f64,
    mut on_epoch: impl FnMut(EpochStats),
) {
    for epoch in 0..epochs {
        let mut loss = 0.0;
        let mut norm_sum = 0.0;
        for _ in 0..windows_per_epoch {
            let idx = (rng::uniform_open(r) * ds.len() as f64) as usize;
            let (ctx, tgt) = ds.window(idx.min(ds.len() - 1));
            norm_sum += step(ctx, tgt, &mut loss);
        }
        on_epoch(EpochStats {
            epoch,
            loss: loss / windows_per_epoch as f64,
            grad_norm: norm_sum / windows_per_epoch as f64,
        });
    }
}

/// One Adam step over several layers, each clipped on its own (a recurrent
/// cell and its head keep independent ceilings). Returns the pre-clip
/// global norm across all of them.
pub(crate) fn clip_and_step(opt: &mut Adam, layers: &mut [&mut dyn Layer]) -> f64 {
    let mut sq = 0.0;
    for l in layers.iter_mut() {
        let n = l.clip_grad_norm(CLIP_NORM);
        sq += n * n;
    }
    opt.begin_step();
    for l in layers.iter_mut() {
        l.visit_params(&mut |p| opt.update(p));
        l.zero_grad();
    }
    sq.sqrt()
}

/// `Unhealthy("<model>: non-finite <what>")` unless every value is finite.
/// A forecast computed from (or through) NaN/∞ is not a forecast: the
/// planner is told so instead of being handed a number.
pub(crate) fn require_finite(
    model: &str,
    what: impl std::fmt::Display,
    values: &[f64],
) -> Result<(), ForecastError> {
    if values.iter().all(|v| v.is_finite()) {
        return Ok(());
    }
    Err(ForecastError::Unhealthy(format!("{model}: non-finite {what}")))
}

/// What a fitted window model accepts at forecast time.
pub(crate) struct ContextGuard {
    /// Model name, for the `Unhealthy` message.
    pub model: &'static str,
    /// Shortest context the model can forecast from.
    pub needed: usize,
    /// How much of the context's tail the model reads.
    pub window: usize,
    /// Longest horizon the fitted head supports.
    pub max_horizon: usize,
}

impl ContextGuard {
    /// Guard of a direct multi-horizon model: it reads exactly `context`
    /// samples and its head is sized for `horizon` steps.
    pub(crate) fn direct(model: &'static str, context: usize, horizon: usize) -> Self {
        Self { model, needed: context, window: context, max_horizon: horizon }
    }

    /// The fitted state and the context window the model will read, or —
    /// in this order — `NotFitted`, `HorizonTooLong`, `SeriesTooShort`, or
    /// `Unhealthy` for a non-finite value inside that window (one the
    /// window has already slid past is not read and not an error).
    pub(crate) fn admit<'a, T>(
        &self,
        fitted: Option<T>,
        context: &'a [f64],
        horizon: usize,
    ) -> Result<(T, &'a [f64]), ForecastError> {
        let fitted = fitted.ok_or(ForecastError::NotFitted)?;
        if horizon > self.max_horizon {
            return Err(ForecastError::HorizonTooLong {
                max: self.max_horizon,
                requested: horizon,
            });
        }
        require_len(context, self.needed)?;
        let used = &context[context.len().saturating_sub(self.window)..];
        require_finite(self.model, "value in context", used)?;
        Ok((fitted, used))
    }
}

/// Snapshot a layer stack, with the model's input scaler (when it has a
/// global one) as the snapshot's two extras.
pub(crate) fn snapshot(layers: &mut [&mut dyn Layer], scaler: Option<Standardizer>) -> Vec<u8> {
    match scaler {
        Some(s) => rpas_nn::save_weights(layers, &[s.mean, s.std]),
        None => rpas_nn::save_weights(layers, &[]),
    }
}

/// Load a snapshot into a freshly built layer stack; returns its extras.
pub(crate) fn restore(
    layers: &mut [&mut dyn Layer],
    data: &[u8],
) -> Result<Vec<f64>, ForecastError> {
    rpas_nn::load_weights(layers, data)
        .map_err(|e| ForecastError::InvalidConfig(format!("weight snapshot: {e}")))
}

/// [`restore`] for a model whose snapshot carries its input scaler.
pub(crate) fn restore_scaled(
    layers: &mut [&mut dyn Layer],
    data: &[u8],
) -> Result<Standardizer, ForecastError> {
    match restore(layers, data)?[..] {
        [mean, std] => Ok(Standardizer { mean, std }),
        _ => Err(ForecastError::InvalidConfig("snapshot missing scaler".into())),
    }
}
