//! Fleet-level quality of service: aggregating many per-tenant
//! [`SimulationReport`]s into the numbers a fleet operator watches.
//!
//! The paper evaluates one database at a time; the production setting it
//! targets is a *fleet* — thousands of instances behind one control
//! plane. This module scores that shape: per-tenant QoS (violation rate,
//! over-provision cost, regret against the clairvoyant allocation) and
//! fleet aggregates (step-weighted violation rate, total over-provision
//! cost, P95/max per-tenant regret). The engine that *produces* the
//! reports lives in `rpas_core::fleet`; this module only does the
//! arithmetic, so it stays usable from any driver.

use crate::report::SimulationReport;

/// Per-tenant quality-of-service summary, derived from one tenant's
/// [`SimulationReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantQos {
    /// Decision ticks simulated for this tenant.
    pub steps: usize,
    /// Fraction of ticks whose utilization breached `θ`.
    pub violation_rate: f64,
    /// Node-steps allocated beyond the clairvoyant minimum
    /// (`Σ max(pool − required, 0)`) — the tenant's over-provision cost.
    pub over_provision_node_steps: u64,
    /// Total node-steps the tenant consumed.
    pub node_steps: u64,
    /// Regret vs the clairvoyant allocation: allocated minus required
    /// node-steps. Positive = paying for idle capacity; negative = ran
    /// below the safe minimum (an SLO risk, not a saving).
    pub regret_node_steps: i64,
}

/// Score one tenant's report against the clairvoyant allocation — the
/// per-tick `required_nodes` its provisioning summary was measured
/// against.
pub fn tenant_qos(report: &SimulationReport) -> TenantQos {
    // Excess and deficit are sums of whole node counts, exact in `f64`
    // below 2^53, so the casts lose nothing.
    let p = &report.provisioning;
    TenantQos {
        steps: report.steps.len(),
        violation_rate: report.violation_rate,
        over_provision_node_steps: p.excess_node_steps as u64,
        node_steps: report.total_node_steps(),
        regret_node_steps: (p.excess_node_steps - p.deficit_node_steps) as i64,
    }
}

/// Fleet-level aggregate over every tenant's [`TenantQos`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetQos {
    /// Number of tenants aggregated.
    pub tenants: usize,
    /// Total decision ticks across the fleet.
    pub total_steps: u64,
    /// Step-weighted SLO violation rate across the fleet.
    pub violation_rate: f64,
    /// Total node-steps allocated beyond the clairvoyant minimum.
    pub over_provision_node_steps: u64,
    /// Total node-steps consumed by the fleet.
    pub node_steps: u64,
    /// P95 of per-tenant `regret_node_steps` (nearest-rank over the
    /// sorted regrets; deterministic for a fixed tenant set).
    pub p95_regret_node_steps: i64,
    /// Worst per-tenant regret.
    pub max_regret_node_steps: i64,
}

/// Aggregate per-tenant QoS into fleet QoS.
///
/// # Panics
/// Panics on an empty tenant list (a fleet has at least one tenant).
#[expect(clippy::expect_used, reason = "the assert above rejects an empty tenant list")]
pub fn fleet_qos(tenants: &[TenantQos]) -> FleetQos {
    assert!(!tenants.is_empty(), "fleet QoS needs at least one tenant");
    let total_steps: u64 = tenants.iter().map(|t| t.steps as u64).sum();
    let violations: f64 =
        tenants.iter().map(|t| t.violation_rate * t.steps as f64).sum();
    let mut regrets: Vec<i64> = tenants.iter().map(|t| t.regret_node_steps).collect();
    regrets.sort_unstable();
    // Nearest-rank P95: the smallest regret with ≥95% of tenants at or
    // below it. For one tenant this is that tenant's regret.
    let rank = ((tenants.len() as f64 * 0.95).ceil() as usize).clamp(1, tenants.len());
    FleetQos {
        tenants: tenants.len(),
        total_steps,
        violation_rate: if total_steps == 0 { 0.0 } else { violations / total_steps as f64 },
        over_provision_node_steps: tenants.iter().map(|t| t.over_provision_node_steps).sum(),
        node_steps: tenants.iter().map(|t| t.node_steps).sum(),
        p95_regret_node_steps: regrets[rank - 1],
        max_regret_node_steps: *regrets.last().expect("non-empty"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FixedPolicy, OraclePolicy};
    use crate::simulator::{SimConfig, SimSession};
    use rpas_metrics::provisioning::required_nodes;
    use rpas_traces::Trace;

    fn run(values: Vec<f64>, nodes: u32) -> SimulationReport {
        let tr = Trace::new("w", 600, values);
        SimSession::new(&tr, SimConfig::default()).run(&mut FixedPolicy(nodes))
    }

    #[test]
    fn oracle_tenant_has_zero_regret() {
        let tr = Trace::new("w", 600, vec![30.0, 130.0, 250.0, 90.0]);
        let report = SimSession::new(&tr, SimConfig::default())
            .run(&mut OraclePolicy::new(tr.values.clone()));
        let q = tenant_qos(&report);
        assert_eq!(q.regret_node_steps, 0);
        assert_eq!(q.over_provision_node_steps, 0);
    }

    #[test]
    fn oversized_tenant_pays_over_provision() {
        // 10 nodes against workload 30 (needs 1): 9 idle nodes × 8 ticks.
        let q = tenant_qos(&run(vec![30.0; 8], 10));
        assert_eq!(q.over_provision_node_steps, 72);
        assert_eq!(q.regret_node_steps, 72);
        assert_eq!(q.node_steps, 80);
        assert_eq!(q.violation_rate, 0.0);
    }

    #[test]
    fn undersized_tenant_has_negative_regret_and_violations() {
        // 1 node against workload 200 (needs 4): regret 1−4 per tick.
        let q = tenant_qos(&run(vec![200.0; 5], 1));
        assert_eq!(q.regret_node_steps, -15);
        assert_eq!(q.over_provision_node_steps, 0);
        assert_eq!(q.violation_rate, 1.0);
    }

    /// The per-step loop `tenant_qos` ran before it read the provisioning
    /// summary, kept as the reference.
    fn tenant_qos_stepwise(report: &SimulationReport, theta: f64, min_nodes: u32) -> TenantQos {
        let (mut over, mut allocated, mut required) = (0u64, 0u64, 0u64);
        for s in &report.steps {
            let need = required_nodes(s.workload, theta, min_nodes) as u64;
            let pool = s.pool_nodes as u64;
            over += pool.saturating_sub(need);
            allocated += pool;
            required += need;
        }
        TenantQos {
            steps: report.steps.len(),
            violation_rate: report.violation_rate,
            over_provision_node_steps: over,
            node_steps: allocated,
            regret_node_steps: allocated as i64 - required as i64,
        }
    }

    #[test]
    fn qos_from_provisioning_matches_the_stepwise_reference() {
        let cfg = SimConfig::default();
        // Over- and under-provisioned ticks mixed in one run, at several
        // fixed pool sizes and workload scales.
        for nodes in [1, 2, 3, 5, 9] {
            for scale in [0.0, 7.5, 61.0, 333.0] {
                let values: Vec<f64> =
                    (0..97).map(|t| scale * (1.0 + ((t * 37) % 11) as f64) / 3.0).collect();
                let report = run(values, nodes);
                assert_eq!(
                    tenant_qos(&report),
                    tenant_qos_stepwise(&report, cfg.theta, cfg.min_nodes),
                    "nodes={nodes} scale={scale}"
                );
            }
        }
    }

    #[test]
    fn fleet_aggregates_are_step_weighted() {
        let a = tenant_qos(&run(vec![200.0; 10], 1)); // all violations
        let b = tenant_qos(&run(vec![30.0; 30], 1)); // none
        let f = fleet_qos(&[a, b]);
        assert_eq!(f.tenants, 2);
        assert_eq!(f.total_steps, 40);
        assert!((f.violation_rate - 0.25).abs() < 1e-12);
        assert_eq!(f.node_steps, 40);
    }

    #[test]
    fn p95_regret_is_nearest_rank() {
        let mk = |regret: i64| TenantQos {
            steps: 1,
            violation_rate: 0.0,
            over_provision_node_steps: 0,
            node_steps: 1,
            regret_node_steps: regret,
        };
        // 20 tenants with regrets 1..=20: rank ceil(20·0.95)=19 → 19.
        let tenants: Vec<TenantQos> = (1..=20).map(mk).collect();
        let f = fleet_qos(&tenants);
        assert_eq!(f.p95_regret_node_steps, 19);
        assert_eq!(f.max_regret_node_steps, 20);
        // A single tenant's P95 is its own regret.
        assert_eq!(fleet_qos(&[mk(7)]).p95_regret_node_steps, 7);
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn empty_fleet_rejected() {
        let _ = fleet_qos(&[]);
    }
}
