//! # rpas-tsmath
//!
//! Numerical substrate for the `rpas` workspace: dense linear algebra,
//! probability distributions (Gaussian, Student-t), special functions, and
//! descriptive statistics used by the forecasting models and the robust
//! auto-scaling manager.
//!
//! Everything is implemented from scratch in safe Rust over `f64`. The
//! distributions expose the full pdf / log-pdf / cdf / quantile / sampling
//! surface that the probabilistic forecasters need: parametric-distribution
//! forecasters (DeepAR, MLP) sample and invert these distributions to turn
//! learned `(μ, σ, ν)` parameters into quantile forecasts.
//!
//! [`elementary`] holds the `exp` / `tanh` / `sigmoid` that every crate
//! calls instead of libm's, so their bits do not depend on the host.

#![warn(missing_docs)]
// Library-code rules P1 / O1 (DESIGN.md §9); an exemption is a per-site `#[expect]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::print_stdout)]
#![cfg_attr(not(test), deny(clippy::float_cmp))] // F1

pub mod elementary;
mod matrix;
mod normal;
pub mod propcheck;
pub mod rng;
pub mod special;
pub mod stats;
mod studentt;
pub mod vector;

pub use matrix::Matrix;
pub use normal::Normal;
pub use studentt::StudentT;

/// A continuous univariate distribution, as needed by the probabilistic
/// forecasters: density for NLL training, quantile for turning a learned
/// distribution into quantile forecasts, and sampling for Monte-Carlo
/// forecast paths (DeepAR-style ancestral sampling).
pub trait Distribution {
    /// Natural log of the probability density at `x`.
    fn ln_pdf(&self, x: f64) -> f64;
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64 {
        elementary::exp(self.ln_pdf(x))
    }
    /// Cumulative distribution function at `x`.
    fn cdf(&self, x: f64) -> f64;
    /// Quantile function (inverse cdf) at probability `p ∈ (0, 1)`.
    fn quantile(&self, p: f64) -> f64;
    /// Draw one sample using the supplied RNG.
    fn sample(&self, rng: &mut dyn crate::rng::RngCore) -> f64;
    /// Distribution mean.
    fn mean(&self) -> f64;
    /// Distribution variance (may be infinite, e.g. Student-t with ν ≤ 2).
    fn variance(&self) -> f64;
}
