//! # rpas-metrics
//!
//! Evaluation metrics from the paper's §IV:
//!
//! * forecast quality — weighted quantile loss (`wQL`), `Coverage`,
//!   `mean_wQL`, `MSE`/`MAE` (Table I, Fig. 8);
//! * scaling quality — under-provisioning and over-provisioning rates
//!   (Figs. 9–12).

#![warn(missing_docs)]

pub mod calibration;
pub mod point;
pub mod provisioning;
pub mod quantile;

pub use calibration::{calibration_bias, calibration_curve, calibration_error, CalibrationPoint};
pub use point::{mae, mse};
pub use provisioning::{provisioning_rates, provisioning_rates_over, ProvisioningReport};
pub use quantile::{coverage, mean_weighted_quantile_loss, quantile_loss, weighted_quantile_loss};
