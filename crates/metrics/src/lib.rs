//! # rpas-metrics
//!
//! Evaluation metrics from the paper's §IV:
//!
//! * forecast quality — weighted quantile loss (`wQL`), `Coverage`, `MSE`
//!   (Table I, Fig. 8);
//! * scaling quality — under-provisioning and over-provisioning rates
//!   (Figs. 9–12).

#![warn(missing_docs)]
// Library-code rules P1 / O1 (DESIGN.md §9); an exemption is a per-site `#[expect]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::print_stdout)]
#![deny(clippy::indexing_slicing)] // P1: zero index sites stay zero

mod point;
pub mod provisioning;
mod quantile;

pub use point::mse;
pub use provisioning::{provisioning_rates, provisioning_rates_over, ProvisioningReport};
pub use quantile::{coverage, weighted_quantile_loss};
