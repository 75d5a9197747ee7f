//! # rpas-forecast
//!
//! Probabilistic workload forecasters — phase ① of the paper's framework.
//!
//! Two methodological families are implemented, mirroring §III-B:
//!
//! * **Learn parametric distributions** — [`mlp::MlpProb`] (feed-forward,
//!   Gaussian or Student-t head) and [`deepar::DeepAr`] (autoregressive GRU,
//!   Student-t head, Monte-Carlo quantiles). Any quantile level can be read
//!   off the learned distribution after training.
//! * **Learn a pre-specified grid of quantiles** — [`tft::Tft`] (simplified
//!   Temporal Fusion Transformer trained with summed pinball loss). Levels
//!   outside the trained grid are interpolated.
//!
//! Baselines: [`arima::Arima`] (Hannan–Rissanen fit, residual-variance
//! quantiles), `naive` reference models, [`qb5000::Qb5000`] (hybrid point
//! forecaster after QueryBot 5000), and the CloudScale-style
//! [`padding::PaddedForecaster`] enhancement.
//!
//! ## What is written once, and where
//!
//! The five window-trained models (MLP, MLP-quantile, DeepAR, TFT and
//! QB5000's LSTM) differ in their network and loss, not in the scaffold
//! around them, so the scaffold is not theirs:
//!
//! * `window` (private) — the sampled-window training loop (seeded draws,
//!   epoch/window iteration, per-epoch loss and gradient-norm means; a model
//!   passes one step closure and emits its own `train.<model>/epoch` event),
//!   the forecast-time guard (`NotFitted` → `HorizonTooLong` →
//!   `SeriesTooShort` → tail slice → finite check), the
//!   `"<model>: non-finite …"` → [`ForecastError::Unhealthy`] check reused
//!   for head outputs and for the training series every model's `fit`
//!   starts from, and the weight snapshot with its scaler extras.
//!   Consequence: *every* window model answers `Unhealthy` — never a panic,
//!   a NaN or a finite number computed through one — on a non-finite value
//!   in the context it reads or in its head output, and every `fit` in the
//!   crate on one in its training series (`tests/hostile_inputs.rs`).
//! * `grid` (private) — the quantile-grid head: the pinball step over a
//!   horizon-major output and the decode to data units at any requested
//!   levels, shared by MLP-quantile and TFT.
//! * [`Forecaster::export_weights`] (default `None`) is how any model,
//!   boxed or not, is asked for its snapshot; the neural models restore one
//!   with their `import_weights`. `tests/persistence.rs` pins trained
//!   weights, epoch audit numbers and forecasts bit for bit across commits.
//! * [`PointFromQuantile`] is the one point view of a quantile forecaster
//!   (the median of its `0.5` forecast). A type implements
//!   [`PointForecaster`] by hand only when its point forecast is *not* that:
//!   [`Qb5000`] (no quantiles at all), [`PaddedForecaster`] (adds a pad),
//!   [`LastValue`] (repeats the last sample without needing a fit spread).
//!   Error feedback for padding is a defaulted method of the same trait.

#![warn(missing_docs)]
// Library-code rules P1 / O1 (DESIGN.md §9); an exemption is a per-site `#[expect]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::print_stdout)]
#![cfg_attr(not(test), deny(clippy::float_cmp))] // F1

mod arima;
mod deepar;
mod grid;
mod holt_winters;
mod mlp;
mod mlp_quantile;
mod naive;
mod padding;
mod qb5000;
mod tft;
mod types;
mod window;

pub use arima::{Arima, ArimaConfig};
pub use deepar::{DeepAr, DeepArConfig};
pub use holt_winters::{HoltWinters, HoltWintersConfig};
pub use mlp::{DistKind, MlpProb, MlpProbConfig};
pub use mlp_quantile::{MlpQuantile, MlpQuantileConfig};
pub use naive::{LastValue, SeasonalNaive};
pub use padding::PaddedForecaster;
pub use qb5000::{Qb5000, Qb5000Config};
pub use tft::{Tft, TftConfig};
pub use types::{ForecastError, Forecaster, PointForecaster, PointFromQuantile, QuantileForecast};

/// The paper's standard evaluation grid `A = {0.1, …, 0.9}` (§IV-B).
pub const EVAL_LEVELS: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// The scaling-oriented grid `A = {0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99}`
/// used when training quantile forecasters for auto-scaling (§IV-C).
pub const SCALING_LEVELS: [f64; 7] = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99];
