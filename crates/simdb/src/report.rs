//! Simulation outputs: per-step records and run-level summaries.

use crate::faults::{FaultCounts, RecoveryStats};
use rpas_metrics::ProvisioningReport;

/// One simulated interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// Step index.
    pub step: usize,
    /// Realised workload over the interval.
    pub workload: f64,
    /// Node count the policy requested.
    pub target_nodes: u32,
    /// Nodes actually in the pool over the interval. Equals
    /// `target_nodes` on the happy path; diverges under fault injection
    /// (rejected scale actions, crashes).
    pub pool_nodes: u32,
    /// Effective serving capacity (node-units; warm-up discounts count).
    pub effective_capacity: f64,
    /// Average per-node workload (`workload / effective_capacity`).
    pub utilization: f64,
    /// Whether utilization exceeded the threshold `θ`.
    pub violation: bool,
}

/// Full simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Policy display name.
    pub policy: String,
    /// Per-step records.
    pub steps: Vec<StepRecord>,
    /// Under-/over-provisioning summary (allocation vs realised demand).
    pub provisioning: ProvisioningReport,
    /// Fraction of intervals whose utilization exceeded `θ` after
    /// accounting for warm-up (the SLO-facing view of under-provisioning).
    pub violation_rate: f64,
    /// Scale-out operations performed.
    pub scale_out_events: usize,
    /// Scale-in operations performed.
    pub scale_in_events: usize,
    /// Checkpoint reads served by shared storage (== nodes launched).
    pub checkpoint_reads: u64,
    /// Applied-fault tallies (all zero for fault-free runs).
    pub faults: FaultCounts,
    /// Recovery-time stats for fault-attributable violation episodes
    /// (`None` for fault-free runs).
    pub recovery: Option<RecoveryStats>,
}

impl SimulationReport {
    /// Allocation series (one entry per step): the nodes actually paid
    /// for each interval. Identical to the requested targets on the happy
    /// path; under faults it reflects rejections and crashes.
    pub fn allocations(&self) -> Vec<u32> {
        self.steps.iter().map(|s| s.pool_nodes).collect()
    }

    /// Total node-intervals paid for.
    pub fn total_node_steps(&self) -> u64 {
        self.steps.iter().map(|s| s.pool_nodes as u64).sum()
    }

    /// Mean utilization over the run, guarded against silent NaN
    /// propagation: non-finite per-step utilizations (degenerate capacity
    /// arithmetic) are skipped, and a report with no usable steps yields
    /// `0.0` instead of `NaN` so downstream aggregation stays finite.
    pub(crate) fn mean_utilization(&self) -> f64 {
        let finite: Vec<f64> =
            self.steps.iter().map(|s| s.utilization).filter(|u| u.is_finite()).collect();
        if finite.is_empty() {
            return 0.0;
        }
        finite.iter().sum::<f64>() / finite.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_metrics::ProvisioningReport;

    fn report(steps: Vec<StepRecord>) -> SimulationReport {
        SimulationReport {
            policy: "test".into(),
            steps,
            provisioning: ProvisioningReport {
                under_rate: 0.0,
                over_rate: 0.0,
                avg_allocated: 0.0,
                excess_node_steps: 0.0,
                deficit_node_steps: 0.0,
            },
            violation_rate: 0.0,
            scale_out_events: 0,
            scale_in_events: 0,
            checkpoint_reads: 0,
            faults: FaultCounts::default(),
            recovery: None,
        }
    }

    fn step(utilization: f64) -> StepRecord {
        StepRecord {
            step: 0,
            workload: 0.0,
            target_nodes: 1,
            pool_nodes: 1,
            effective_capacity: 1.0,
            utilization,
            violation: false,
        }
    }

    #[test]
    fn mean_utilization_is_finite_on_empty_report() {
        assert_eq!(report(vec![]).mean_utilization(), 0.0);
    }

    #[test]
    fn mean_utilization_skips_non_finite_steps() {
        let r = report(vec![step(0.5), step(f64::NAN), step(1.5), step(f64::INFINITY)]);
        assert_eq!(r.mean_utilization(), 1.0);
    }

    #[test]
    fn mean_utilization_all_nan_yields_zero() {
        let r = report(vec![step(f64::NAN), step(f64::NAN)]);
        assert_eq!(r.mean_utilization(), 0.0);
    }
}
