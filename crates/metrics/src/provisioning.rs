//! Scaling-quality metrics: under-provisioning and over-provisioning rates
//! (§IV-C of the paper, Figs. 9–12).
//!
//! Given an allocation of compute nodes `c_t`, the realised workload `w_t`,
//! and the scaling threshold `θ`, a period is:
//!
//! * **under-provisioned** when the average per-node workload exceeds the
//!   threshold: `w_t / c_t > θ` — i.e. fewer nodes than the minimum
//!   `ceil(w_t / θ)` required;
//! * **over-provisioned** when more nodes are allocated than that minimum.

/// Summary of a scaling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProvisioningReport {
    /// Fraction of periods with too few nodes (SLO at risk).
    pub under_rate: f64,
    /// Fraction of periods with more nodes than the minimum required.
    pub over_rate: f64,
    /// Fraction of periods allocated exactly the minimum.
    pub exact_rate: f64,
    /// Mean allocated nodes per period.
    pub avg_allocated: f64,
    /// Mean minimum-required nodes per period.
    pub avg_required: f64,
    /// Total node-periods allocated beyond the minimum (wasted capacity).
    pub excess_node_steps: f64,
    /// Total node-periods short of the minimum (capacity deficit).
    pub deficit_node_steps: f64,
}

/// Minimum nodes that keep per-node workload at or below `theta`.
/// At least `min_nodes` (a cluster cannot scale to zero while serving).
pub fn required_nodes(workload: f64, theta: f64, min_nodes: u32) -> u32 {
    assert!(theta > 0.0, "threshold must be positive");
    assert!(workload >= 0.0, "workload must be non-negative");
    let need = (workload / theta).ceil() as u32;
    need.max(min_nodes)
}

/// Compute under/over-provisioning rates for an allocation against the
/// realised workload.
///
/// # Panics
/// Panics on length mismatch, empty input, or non-positive threshold.
pub fn provisioning_rates(
    allocations: &[u32],
    actual_workload: &[f64],
    theta: f64,
    min_nodes: u32,
) -> ProvisioningReport {
    assert_eq!(allocations.len(), actual_workload.len(), "provisioning: length mismatch");
    provisioning_rates_over(
        allocations.iter().copied().zip(actual_workload.iter().copied()),
        theta,
        min_nodes,
    )
}

/// [`provisioning_rates`] over `(allocation, realised workload)` pairs,
/// for a caller whose two series are not slices of their own.
///
/// # Panics
/// Panics on empty input or a non-positive threshold.
pub fn provisioning_rates_over(
    periods: impl Iterator<Item = (u32, f64)>,
    theta: f64,
    min_nodes: u32,
) -> ProvisioningReport {
    let mut under = 0usize;
    let mut over = 0usize;
    let mut exact = 0usize;
    let mut alloc_sum = 0.0;
    let mut req_sum = 0.0;
    let mut excess = 0.0;
    let mut deficit = 0.0;

    for (c, w) in periods {
        let req = required_nodes(w, theta, min_nodes);
        alloc_sum += c as f64;
        req_sum += req as f64;
        use std::cmp::Ordering::*;
        match c.cmp(&req) {
            Less => {
                under += 1;
                deficit += (req - c) as f64;
            }
            Greater => {
                over += 1;
                excess += (c - req) as f64;
            }
            Equal => exact += 1,
        }
    }

    assert!(under + over + exact > 0, "provisioning: empty input");
    let n = (under + over + exact) as f64;
    ProvisioningReport {
        under_rate: under as f64 / n,
        over_rate: over as f64 / n,
        exact_rate: exact as f64 / n,
        avg_allocated: alloc_sum / n,
        avg_required: req_sum / n,
        excess_node_steps: excess,
        deficit_node_steps: deficit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_nodes_ceiling() {
        assert_eq!(required_nodes(100.0, 60.0, 1), 2);
        assert_eq!(required_nodes(120.0, 60.0, 1), 2);
        assert_eq!(required_nodes(121.0, 60.0, 1), 3);
        assert_eq!(required_nodes(0.0, 60.0, 1), 1);
        assert_eq!(required_nodes(0.0, 60.0, 0), 0);
    }

    #[test]
    fn rates_sum_to_one() {
        let alloc = [1, 2, 3, 4];
        let work = [100.0, 100.0, 100.0, 100.0]; // requires 2 @ θ=60
        let r = provisioning_rates(&alloc, &work, 60.0, 1);
        assert!((r.under_rate + r.over_rate + r.exact_rate - 1.0).abs() < 1e-12);
        assert!((r.under_rate - 0.25).abs() < 1e-12); // alloc=1
        assert!((r.over_rate - 0.5).abs() < 1e-12); // alloc=3,4
    }

    #[test]
    fn perfect_allocation() {
        let work = [30.0, 90.0, 150.0];
        let alloc = [1, 2, 3];
        let r = provisioning_rates(&alloc, &work, 60.0, 1);
        assert_eq!(r.under_rate, 0.0);
        assert_eq!(r.over_rate, 0.0);
        assert_eq!(r.exact_rate, 1.0);
        assert_eq!(r.excess_node_steps, 0.0);
        assert_eq!(r.deficit_node_steps, 0.0);
    }

    #[test]
    fn excess_and_deficit_counting() {
        let work = [120.0, 120.0]; // requires 2 @ θ=60
        let r = provisioning_rates(&[4, 1], &work, 60.0, 1);
        assert_eq!(r.excess_node_steps, 2.0);
        assert_eq!(r.deficit_node_steps, 1.0);
        assert!((r.avg_allocated - 2.5).abs() < 1e-12);
        assert!((r.avg_required - 2.0).abs() < 1e-12);
    }

    #[test]
    fn boundary_workload_exactly_at_threshold() {
        // w/c == θ exactly is NOT under-provisioned (constraint is ≤).
        let r = provisioning_rates(&[2], &[120.0], 60.0, 1);
        assert_eq!(r.under_rate, 0.0);
        assert_eq!(r.exact_rate, 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        provisioning_rates(&[1], &[1.0, 2.0], 60.0, 1);
    }
}
