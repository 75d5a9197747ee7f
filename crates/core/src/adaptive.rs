//! Adaptive robust auto-scaling (Definition 5 + Algorithm 1): choose the
//! quantile level *per time step*, guided by the forecast-uncertainty
//! metric `U` — conservative when the forecast is uncertain, aggressive
//! when it is confident — plus the staircase multi-level extension the
//! paper sketches ("a staircase-like range of options").
//!
//! This module holds the strategies' parameters only. The per-step rule
//! lives once, in [`crate::RobustAutoScalingManager`], planning under
//! [`crate::ScalingStrategy::Adaptive`] or `Staircase` (attach a handle
//! with `with_obs` for the decision audit).

/// Parameters of Algorithm 1 (two optional quantile levels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// The aggressive (lower) quantile level `τ₁`.
    pub tau_low: f64,
    /// The conservative (higher) quantile level `τ₂`.
    pub tau_high: f64,
    /// Uncertainty threshold `ρ_τ`: steps with `U ≥ ρ_τ` use `τ₂`.
    pub rho: f64,
}

impl AdaptiveConfig {
    /// New config.
    ///
    /// # Panics
    /// Panics on a config [`crate::ScalingStrategy::validate`] refuses.
    pub fn new(tau_low: f64, tau_high: f64, rho: f64) -> Self {
        let cfg = Self { tau_low, tau_high, rho };
        let valid = crate::ScalingStrategy::Adaptive(cfg).validate();
        assert_eq!(valid, Ok(()), "invalid adaptive config");
        cfg
    }
}

/// One rung of the staircase extension: forecasts whose uncertainty
/// reaches `min_uncertainty` (and no higher rung) use quantile `tau`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaircaseLevel {
    /// Inclusive lower uncertainty bound for this rung.
    pub min_uncertainty: f64,
    /// Quantile level applied on this rung.
    pub tau: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "need 0 < τ₁ ≤ τ₂ < 1")]
    fn adaptive_rejects_inverted_levels() {
        AdaptiveConfig::new(0.9, 0.5, 1.0);
    }

    #[test]
    #[should_panic(expected = "uncertainty threshold must be non-negative and finite")]
    fn adaptive_rejects_an_infinite_rho() {
        AdaptiveConfig::new(0.8, 0.95, f64::INFINITY);
    }
}
