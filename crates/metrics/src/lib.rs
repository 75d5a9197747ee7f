//! # rpas-metrics
//!
//! Evaluation metrics from the paper's §IV:
//!
//! * forecast quality — weighted quantile loss (`wQL`), `Coverage`, `MSE`
//!   (Table I, Fig. 8);
//! * scaling quality — under-provisioning and over-provisioning rates
//!   (Figs. 9–12).

#![warn(missing_docs)]

mod point;
pub mod provisioning;
mod quantile;

pub use point::mse;
pub use provisioning::{provisioning_rates, provisioning_rates_over, ProvisioningReport};
pub use quantile::{coverage, weighted_quantile_loss};
