//! Quality-of-service extension (§V-B of the paper, flagged there as
//! future work): a queueing-style performance model that maps per-node
//! utilization to query latency, plus SLO accounting over a simulation.
//!
//! The paper deliberately scopes QoS out of its evaluation but names
//! performance modeling as "a promising approach to tackle the challenges
//! of threshold configuration". This module provides exactly that bridge:
//! given a latency SLO, [`LatencyModel::max_utilization_for`] inverts the
//! model into the scaling threshold `θ` to hand to the auto-scaling
//! manager.

use crate::report::SimulationReport;

/// M/M/1-flavoured latency model: with per-node service time `s` (the
/// latency of a query on an idle node) and utilization `ρ ∈ [0, 1)`,
/// mean response time is `s / (1 − ρ)`. Tail latency is approximated by
/// the exponential sojourn quantile `mean · ln(1/(1−q))`.
///
/// ```
/// use rpas_simdb::LatencyModel;
/// let m = LatencyModel::new(5.0, 100.0);
/// let theta = m.max_utilization_for(120.0, 0.99); // SLO → scaling threshold
/// assert!(theta > 0.0 && theta < 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Base (idle) query latency in milliseconds.
    pub base_latency_ms: f64,
    /// Workload units that saturate one node (utilization 1.0).
    pub node_capacity: f64,
}

impl LatencyModel {
    /// New model.
    ///
    /// # Panics
    /// Panics on non-positive parameters.
    pub fn new(base_latency_ms: f64, node_capacity: f64) -> Self {
        assert!(base_latency_ms > 0.0, "base latency must be positive");
        assert!(node_capacity > 0.0, "node capacity must be positive");
        Self { base_latency_ms, node_capacity }
    }

    /// Utilization of one node carrying `per_node_workload` units.
    pub(crate) fn utilization(&self, per_node_workload: f64) -> f64 {
        (per_node_workload / self.node_capacity).max(0.0)
    }

    /// Mean query latency at the given per-node workload. Saturated or
    /// over-saturated nodes (`ρ ≥ 1`) return infinity.
    pub(crate) fn mean_latency_ms(&self, per_node_workload: f64) -> f64 {
        let rho = self.utilization(per_node_workload);
        if rho >= 1.0 {
            f64::INFINITY
        } else {
            self.base_latency_ms / (1.0 - rho)
        }
    }

    /// Approximate `q`-quantile latency (exponential sojourn).
    ///
    /// # Panics
    /// Panics unless `q ∈ (0, 1)`.
    pub(crate) fn quantile_latency_ms(&self, per_node_workload: f64, q: f64) -> f64 {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0,1)");
        let mean = self.mean_latency_ms(per_node_workload);
        mean * (1.0 / (1.0 - q)).ln()
    }

    /// Invert the model: the largest per-node workload (i.e. the scaling
    /// threshold `θ`) whose `q`-quantile latency stays at or below
    /// `slo_ms`. Returns 0 when even an idle node violates the SLO.
    pub fn max_utilization_for(&self, slo_ms: f64, q: f64) -> f64 {
        assert!(slo_ms > 0.0, "SLO must be positive");
        let factor = (1.0 / (1.0 - q)).ln();
        let max_mean = slo_ms / factor;
        if max_mean <= self.base_latency_ms {
            return 0.0;
        }
        // mean = base/(1−ρ) ⇒ ρ = 1 − base/mean; workload = ρ·capacity.
        (1.0 - self.base_latency_ms / max_mean) * self.node_capacity
    }
}

/// SLO compliance summary over a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloReport {
    /// Fraction of intervals whose modeled tail latency met the SLO.
    pub compliance: f64,
    /// Mean modeled tail latency over compliant (finite) intervals.
    pub mean_tail_latency_ms: f64,
    /// Number of saturated intervals (infinite modeled latency).
    pub saturated_steps: usize,
}

/// Score a simulation's per-step utilizations against a latency SLO.
pub fn slo_report(
    sim: &SimulationReport,
    model: &LatencyModel,
    slo_ms: f64,
    q: f64,
) -> SloReport {
    assert!(!sim.steps.is_empty(), "empty simulation");
    let mut met = 0usize;
    let mut saturated = 0usize;
    let mut lat_sum = 0.0;
    let mut lat_n = 0usize;
    for s in &sim.steps {
        let per_node = s.workload / s.effective_capacity.max(1e-9);
        let lat = model.quantile_latency_ms(per_node, q);
        if lat.is_finite() {
            lat_sum += lat;
            lat_n += 1;
            if lat <= slo_ms {
                met += 1;
            }
        } else {
            saturated += 1;
        }
    }
    SloReport {
        compliance: met as f64 / sim.steps.len() as f64,
        mean_tail_latency_ms: if lat_n > 0 { lat_sum / lat_n as f64 } else { f64::INFINITY },
        saturated_steps: saturated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FixedPolicy, OraclePolicy};
    use crate::simulator::{SimConfig, SimSession};
    use rpas_traces::Trace;

    #[test]
    fn latency_grows_with_utilization() {
        let m = LatencyModel::new(5.0, 100.0);
        assert!((m.mean_latency_ms(0.0) - 5.0).abs() < 1e-12);
        assert!((m.mean_latency_ms(50.0) - 10.0).abs() < 1e-12);
        assert!(m.mean_latency_ms(90.0) > m.mean_latency_ms(50.0));
        assert!(m.mean_latency_ms(100.0).is_infinite());
        assert!(m.mean_latency_ms(150.0).is_infinite());
    }

    #[test]
    fn quantile_latency_exceeds_mean() {
        let m = LatencyModel::new(5.0, 100.0);
        let mean = m.mean_latency_ms(50.0);
        assert!(m.quantile_latency_ms(50.0, 0.99) > mean);
        // p63 ≈ mean for the exponential (ln(1/(1−0.632)) ≈ 1).
        assert!((m.quantile_latency_ms(50.0, 0.632) - mean).abs() / mean < 0.01);
    }

    #[test]
    fn threshold_inversion_roundtrips() {
        let m = LatencyModel::new(5.0, 100.0);
        let slo = 120.0;
        let theta = m.max_utilization_for(slo, 0.99);
        assert!(theta > 0.0 && theta < 100.0);
        // At the derived threshold, the SLO binds exactly.
        let lat = m.quantile_latency_ms(theta, 0.99);
        assert!((lat - slo).abs() < 1e-9, "lat {lat}");
        // Slightly above it, the SLO is violated.
        assert!(m.quantile_latency_ms(theta * 1.05, 0.99) > slo);
    }

    #[test]
    fn impossible_slo_gives_zero_threshold() {
        let m = LatencyModel::new(50.0, 100.0);
        // p99 of an idle node is already 50·ln(100) ≈ 230 ms.
        assert_eq!(m.max_utilization_for(100.0, 0.99), 0.0);
    }

    #[test]
    fn slo_report_over_simulation() {
        let trace = Trace::new("w", 600, vec![40.0, 80.0, 120.0, 240.0]);
        let cfg = SimConfig { theta: 60.0, ..Default::default() };
        let sim = SimSession::new(&trace, cfg);
        let mut oracle = OraclePolicy::new(trace.values.clone());
        let report = sim.run(&mut oracle);
        let model = LatencyModel::new(5.0, 100.0);
        let slo = slo_report(&report, &model, 100.0, 0.99);
        // The oracle keeps per-node load ≤ 60 ⇒ p99 ≈ 57.6 ms ≤ 100 ms.
        assert!(slo.compliance > 0.99, "{slo:?}");
        assert_eq!(slo.saturated_steps, 0);
    }

    #[test]
    fn undersized_cluster_saturates() {
        let trace = Trace::new("w", 600, vec![500.0; 5]);
        let sim = SimSession::new(&trace, SimConfig { theta: 60.0, ..Default::default() });
        let mut fixed = FixedPolicy(1);
        let report = sim.run(&mut fixed);
        let model = LatencyModel::new(5.0, 100.0);
        let slo = slo_report(&report, &model, 100.0, 0.99);
        assert_eq!(slo.saturated_steps, 5);
        assert_eq!(slo.compliance, 0.0);
    }
}
