//! # rpas — Robust Predictive Auto-Scaling
//!
//! Umbrella crate re-exporting the whole workspace — a from-scratch Rust
//! reproduction of *"Robust Auto-Scaling with Probabilistic Workload
//! Forecasting for Cloud Databases"* (ICDE 2024). See the README for a
//! tour, `DESIGN.md` for the paper-to-module map, and `EXPERIMENTS.md` for
//! paper-vs-measured results.
//!
//! The one-screen version of the workflow (Fig. 2 of the paper):
//!
//! ```
//! use rpas::core::{RobustAutoScalingManager, ScalingStrategy};
//! use rpas::forecast::{Forecaster, SeasonalNaive, SCALING_LEVELS};
//! use rpas::traces::{alibaba_like, STEPS_PER_DAY};
//!
//! // ① workload history (synthetic stand-in for a production trace)
//! let history = alibaba_like(7, 7).cpu().clone();
//!
//! // ② probabilistic workload forecaster → quantile forecasts
//! let mut forecaster = SeasonalNaive::new(STEPS_PER_DAY);
//! forecaster.fit(&history.values)?;
//! let context = &history.values[history.values.len() - STEPS_PER_DAY..];
//! let forecast = forecaster.forecast_quantiles(context, 72, &SCALING_LEVELS)?;
//!
//! // ③ robust auto-scaling manager → capacity plan (Eq. 6, τ = 0.9)
//! let manager = RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau: 0.9 });
//! let plan = manager.plan(&forecast);
//! assert_eq!(plan.len(), 72);
//! # Ok::<(), rpas::forecast::ForecastError>(())
//! ```
#![warn(missing_docs)]
// Library-code rules P1 / O1 (DESIGN.md §9); an exemption is a per-site `#[expect]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::print_stdout)]
#![deny(clippy::indexing_slicing)] // P1: zero index sites stay zero

pub mod cli;

pub use rpas_core as core;
pub use rpas_forecast as forecast;
pub use rpas_obs as obs;
pub use rpas_par as par;
pub use rpas_lp as lp;
pub use rpas_metrics as metrics;
pub use rpas_nn as nn;
pub use rpas_simdb as simdb;
pub use rpas_telemetry as telemetry;
pub use rpas_traces as traces;
pub use rpas_tsmath as tsmath;
