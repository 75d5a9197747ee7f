//! Adaptive robust auto-scaling (Definition 5 + Algorithm 1): choose the
//! quantile level *per time step*, guided by the forecast-uncertainty
//! metric `U` — conservative when the forecast is uncertain, aggressive
//! when it is confident — plus the staircase multi-level extension the
//! paper sketches ("a staircase-like range of options").
//!
//! This module holds the strategies' parameters and the paper-named entry
//! points; the per-step rule itself lives once, in
//! [`RobustAutoScalingManager`], which these delegate to (attach a handle
//! with [`RobustAutoScalingManager::with_obs`] for the decision audit).

use crate::manager::{RobustAutoScalingManager, ScalingStrategy};
use crate::plan::CapacityPlan;
use rpas_forecast::QuantileForecast;

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
    /// Panics unless `0 < τ₁ ≤ τ₂ < 1` and `ρ ≥ 0`.
    pub fn new(tau_low: f64, tau_high: f64, rho: f64) -> Self {
        assert!(tau_low > 0.0 && tau_high < 1.0 && tau_low <= tau_high, "need 0 < τ₁ ≤ τ₂ < 1");
        assert!(rho >= 0.0, "uncertainty threshold must be non-negative");
        Self { tau_low, tau_high, rho }
    }
}

/// Algorithm 1 — uncertainty-aware adaptive scaling with two optional
/// quantile levels. Per step `i`: compute `U_i`; allocate against the
/// `τ₂` forecast when `U_i ≥ ρ`, against `τ₁` otherwise.
///
/// # Panics
/// Panics on non-positive `theta`.
pub fn plan_adaptive(
    forecast: &QuantileForecast,
    cfg: AdaptiveConfig,
    theta: f64,
    min_nodes: u32,
) -> CapacityPlan {
    RobustAutoScalingManager::new(theta, min_nodes, ScalingStrategy::Adaptive(cfg)).plan(forecast)
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

/// Staircase adaptive scaling: an arbitrary ladder of
/// `(uncertainty bound → quantile level)` rungs, enabling "more precise
/// control over the auto-scaling strategy" than the two-level variant.
///
/// `levels` must be sorted by ascending `min_uncertainty` with ascending
/// `tau`, and the first rung must start at 0 so every step matches.
///
/// # Panics
/// Panics on an empty/malformed ladder or non-positive `theta`.
pub fn plan_staircase(
    forecast: &QuantileForecast,
    levels: &[StaircaseLevel],
    theta: f64,
    min_nodes: u32,
) -> CapacityPlan {
    RobustAutoScalingManager::new(theta, min_nodes, ScalingStrategy::Staircase(levels.to_vec()))
        .plan(forecast)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::robust::plan_robust;
    use rpas_tsmath::Matrix;

    /// Two steps: step 0 has a tight forecast (low U), step 1 a wide one.
    fn forecast() -> QuantileForecast {
        QuantileForecast::new(
            vec![0.1, 0.5, 0.9, 0.95],
            Matrix::from_rows(&[
                vec![99.0, 100.0, 101.0, 102.0],   // tight
                vec![60.0, 100.0, 180.0, 220.0],   // wide
            ]),
        )
    }

    #[test]
    fn low_uncertainty_uses_aggressive_level() {
        let f = forecast();
        let cfg = AdaptiveConfig::new(0.5, 0.95, 5.0);
        let p = plan_adaptive(&f, cfg, 60.0, 1);
        // Step 0: U small ⇒ τ₁=0.5 ⇒ w=100 ⇒ 2 nodes.
        assert_eq!(p.at(0), 2);
        // Step 1: U large ⇒ τ₂=0.95 ⇒ w=220 ⇒ 4 nodes.
        assert_eq!(p.at(1), 4);
    }

    #[test]
    fn adaptive_lies_between_fixed_plans() {
        let f = forecast();
        let cfg = AdaptiveConfig::new(0.5, 0.95, 5.0);
        let p = plan_adaptive(&f, cfg, 60.0, 1);
        let lo = plan_robust(&f, cfg.tau_low, 60.0, 1);
        let hi = plan_robust(&f, cfg.tau_high, 60.0, 1);
        for t in 0..f.horizon() {
            assert!(p.at(t) >= lo.at(t), "below τ₁ plan at {t}");
            assert!(p.at(t) <= hi.at(t), "above τ₂ plan at {t}");
        }
    }

    #[test]
    fn zero_threshold_is_always_conservative() {
        let f = forecast();
        let cfg = AdaptiveConfig::new(0.5, 0.95, 0.0);
        let p = plan_adaptive(&f, cfg, 60.0, 1);
        let hi = plan_robust(&f, 0.95, 60.0, 1);
        assert_eq!(p, hi);
    }

    #[test]
    fn huge_threshold_is_always_aggressive() {
        let f = forecast();
        let cfg = AdaptiveConfig::new(0.5, 0.95, 1e9);
        let p = plan_adaptive(&f, cfg, 60.0, 1);
        let lo = plan_robust(&f, 0.5, 60.0, 1);
        assert_eq!(p, lo);
    }

    #[test]
    fn equal_levels_reduce_to_fixed() {
        let f = forecast();
        let cfg = AdaptiveConfig::new(0.9, 0.9, 3.0);
        assert_eq!(plan_adaptive(&f, cfg, 60.0, 1), plan_robust(&f, 0.9, 60.0, 1));
    }

    #[test]
    fn staircase_three_rungs() {
        let f = forecast();
        let ladder = [
            StaircaseLevel { min_uncertainty: 0.0, tau: 0.5 },
            StaircaseLevel { min_uncertainty: 2.0, tau: 0.9 },
            StaircaseLevel { min_uncertainty: 10.0, tau: 0.95 },
        ];
        let p = plan_staircase(&f, &ladder, 60.0, 1);
        // Step 0 (U ≈ 1.1 < 2): τ=0.5 ⇒ 2 nodes.
        assert_eq!(p.at(0), 2);
        // Step 1 (U large): reaches the top rung ⇒ τ=0.95 ⇒ 4 nodes.
        assert_eq!(p.at(1), 4);
    }

    #[test]
    fn staircase_with_one_rung_is_fixed() {
        let f = forecast();
        let ladder = [StaircaseLevel { min_uncertainty: 0.0, tau: 0.9 }];
        assert_eq!(plan_staircase(&f, &ladder, 60.0, 1), plan_robust(&f, 0.9, 60.0, 1));
    }

    #[test]
    #[should_panic(expected = "first rung")]
    fn staircase_must_start_at_zero() {
        let f = forecast();
        let ladder = [StaircaseLevel { min_uncertainty: 1.0, tau: 0.9 }];
        let _ = plan_staircase(&f, &ladder, 60.0, 1);
    }

    #[test]
    #[should_panic(expected = "need 0 < τ₁ ≤ τ₂ < 1")]
    fn adaptive_rejects_inverted_levels() {
        AdaptiveConfig::new(0.9, 0.5, 1.0);
    }
}
