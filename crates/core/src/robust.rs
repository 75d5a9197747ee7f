//! Robust auto-scaling (Definition 4 / Eq. 6): replace the point forecast
//! with a chosen quantile of the forecast distribution, so the allocation
//! covers the workload "even in the presence of uncertainty". The quantile
//! level `τ` is the conservatism knob.
//!
//! These are the paper-named entry points; the implementation is
//! [`RobustAutoScalingManager`] with the [`ScalingStrategy::Fixed`]
//! strategy, whose contract (negative forecasts clamp to 0, non-finite
//! ones clamp to 0 and fall to the `min_nodes` floor) they share.

use crate::manager::{PlanningBackend, RobustAutoScalingManager, ScalingStrategy};
use crate::plan::CapacityPlan;
use rpas_forecast::QuantileForecast;

/// Robust plan at a fixed quantile level (Eq. 6), closed form.
///
/// # Panics
/// Panics if `tau` is outside `(0, 1)` or `theta <= 0`.
pub fn plan_robust(
    forecast: &QuantileForecast,
    tau: f64,
    theta: f64,
    min_nodes: u32,
) -> CapacityPlan {
    RobustAutoScalingManager::new(theta, min_nodes, ScalingStrategy::Fixed { tau }).plan(forecast)
}

/// Robust plan at a fixed quantile level, solved through the simplex
/// (cross-validation path; see the `planners` Criterion bench).
///
/// # Panics
/// As [`plan_robust`].
pub fn plan_robust_lp(
    forecast: &QuantileForecast,
    tau: f64,
    theta: f64,
    min_nodes: u32,
) -> CapacityPlan {
    RobustAutoScalingManager::new(theta, min_nodes, ScalingStrategy::Fixed { tau })
        .with_backend(PlanningBackend::Simplex)
        .plan(forecast)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_tsmath::Matrix;

    fn forecast() -> QuantileForecast {
        // 3 steps, levels {0.5, 0.9}: the 0.9 forecasts are higher.
        QuantileForecast::new(
            vec![0.5, 0.9],
            Matrix::from_rows(&[
                vec![100.0, 130.0],
                vec![50.0, 80.0],
                vec![-5.0, 10.0], // negative median to exercise the clamp
            ]),
        )
    }

    #[test]
    fn higher_tau_allocates_at_least_as_much() {
        let f = forecast();
        let p50 = plan_robust(&f, 0.5, 60.0, 1);
        let p90 = plan_robust(&f, 0.9, 60.0, 1);
        for t in 0..3 {
            assert!(p90.at(t) >= p50.at(t), "step {t}");
        }
        assert_eq!(p50.as_slice(), &[2, 1, 1]);
        assert_eq!(p90.as_slice(), &[3, 2, 1]);
    }

    #[test]
    fn interpolated_level_between_grid_points() {
        let f = forecast();
        let p = plan_robust(&f, 0.7, 60.0, 1);
        // 0.7 interpolates halfway: step0 = 115 → 2 nodes.
        assert_eq!(p.at(0), 2);
    }

    #[test]
    fn lp_and_closed_form_agree() {
        let f = forecast();
        for &tau in &[0.5, 0.6, 0.75, 0.9] {
            assert_eq!(
                plan_robust(&f, tau, 60.0, 1),
                plan_robust_lp(&f, tau, 60.0, 1),
                "tau {tau}"
            );
        }
    }

    #[test]
    fn negative_forecasts_clamped() {
        let f = forecast();
        let p = plan_robust(&f, 0.5, 60.0, 1);
        assert_eq!(p.at(2), 1); // clamp(−5) = 0 ⇒ min_nodes
    }

    #[test]
    #[should_panic(expected = "tau must be in (0,1)")]
    fn rejects_out_of_range_tau() {
        plan_robust(&forecast(), 1.0, 60.0, 1);
    }
}
