//! Capacity plans and the deterministic auto-scaling optimization
//! (Definition 3): minimise total compute nodes subject to keeping the
//! average per-node workload below the threshold at every step.

use rpas_lp::{solve, LpProblem, Relation};
use rpas_obs::json::f64_string;

/// A per-step allocation of compute nodes over a decision horizon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityPlan {
    nodes: Vec<u32>,
}

impl CapacityPlan {
    /// Build a plan from explicit per-step node counts.
    pub(crate) fn new(nodes: Vec<u32>) -> Self {
        Self { nodes }
    }

    /// Plan length (the decision horizon `H`).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node count for step `t`.
    ///
    /// # Panics
    /// Panics if `t` is out of range.
    pub fn at(&self, t: usize) -> u32 {
        self.nodes[t]
    }

    /// The allocation series.
    pub fn as_slice(&self) -> &[u32] {
        &self.nodes
    }

    /// The allocation series, by value.
    pub(crate) fn into_vec(self) -> Vec<u32> {
        self.nodes
    }

    /// Objective value `Σ_t c_t` (total node-intervals).
    pub fn total_nodes(&self) -> u64 {
        self.nodes.iter().map(|&c| c as u64).sum()
    }
}

/// Closed-form solution of Definition 3: the problem is separable, so the
/// optimal integral allocation is `c_t = max(ceil(w_t/θ), min_nodes)`.
///
/// ```
/// use rpas_core::plan_point;
/// let plan = plan_point(&[30.0, 90.0, 150.0], 60.0, 1);
/// assert_eq!(plan.as_slice(), &[1, 2, 3]);
/// assert_eq!(plan.total_nodes(), 6);
/// ```
///
/// # Panics
/// Panics unless `theta` and every workload are finite, `theta > 0` and workloads `≥ 0`.
pub fn plan_point(workload: &[f64], theta: f64, min_nodes: u32) -> CapacityPlan {
    assert_eq!(rpas_metrics::validate_theta(theta), Ok(()), "invalid theta");
    CapacityPlan::new(
        workload
            .iter()
            .map(|&w| {
                assert!(w.is_finite() && w >= 0.0, "invalid workload {}", f64_string(w));
                rpas_metrics::provisioning::required_nodes(w, theta, min_nodes)
            })
            .collect(),
    )
}

/// The same optimization routed through the simplex solver — the paper's
/// "solved using standard linear programming solvers" path. The LP
/// relaxation is solved and then rounded up to integral nodes; because the
/// constraint matrix is diagonal the rounding preserves optimality. Each
/// constraint `θ·c_t ≥ w_t` is posed in node units, `c_t ≥ w_t/θ`, capped
/// at `u32::MAX` nodes (where the closed form saturates), so phase 1's sum
/// of right-hand sides stays finite for any finite workload.
///
/// # Panics
/// Panics if the LP solver fails (cannot happen for valid inputs: the
/// covering problem is always feasible and bounded).
#[expect(clippy::expect_used, reason = "the covering LP is feasible and bounded for every input")]
pub(crate) fn plan_point_lp(workload: &[f64], theta: f64, min_nodes: u32) -> CapacityPlan {
    assert_eq!(rpas_metrics::validate_theta(theta), Ok(()), "invalid theta");
    if workload.is_empty() {
        return CapacityPlan::new(Vec::new());
    }
    let h = workload.len();
    let mut p = LpProblem::minimize(vec![1.0; h]);
    for (t, &w) in workload.iter().enumerate() {
        assert!(w.is_finite() && w >= 0.0, "invalid workload {}", f64_string(w));
        let mut row = vec![0.0; h];
        row[t] = 1.0;
        p = p.constraint(row, Relation::Ge, (w / theta).min(f64::from(u32::MAX)));
    }
    let sol = solve(&p).expect("covering LP is always feasible and bounded");
    CapacityPlan::new(
        sol.x
            .iter()
            .map(|&c| {
                // Guard against −1e-12 style numerical dust before ceiling.
                let c = c.max(0.0);
                ((c - 1e-9).ceil().max(0.0) as u32).max(min_nodes)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_is_ceiling() {
        let p = plan_point(&[0.0, 59.9, 60.0, 60.1, 240.0], 60.0, 1);
        assert_eq!(p.as_slice(), &[1, 1, 1, 2, 4]);
        assert_eq!(p.total_nodes(), 9);
    }

    #[test]
    fn min_nodes_floor_applies() {
        let p = plan_point(&[0.0, 10.0], 60.0, 3);
        assert_eq!(p.as_slice(), &[3, 3]);
    }

    #[test]
    fn lp_matches_closed_form() {
        // The second set is past `u32::MAX` nodes, and its sum overflows.
        for w in [&[30.5, 75.0, 120.0, 0.0, 299.9, 61.0][..], &[f64::MAX, 1e300, f64::MAX]] {
            assert_eq!(plan_point(w, 60.0, 1), plan_point_lp(w, 60.0, 1));
        }
    }

    #[test]
    fn lp_handles_exact_multiples() {
        // w = kθ exactly: LP gives k precisely; ceiling must not bump to k+1.
        let w = [60.0, 120.0, 180.0];
        let p = plan_point_lp(&w, 60.0, 1);
        assert_eq!(p.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn empty_horizon() {
        assert!(plan_point(&[], 60.0, 1).is_empty());
        assert!(plan_point_lp(&[], 60.0, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "theta must be positive")]
    fn rejects_bad_theta() {
        plan_point(&[1.0], 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "invalid workload")]
    fn rejects_negative_workload() {
        plan_point(&[-1.0], 60.0, 1);
    }
}
