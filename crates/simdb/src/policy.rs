//! The scaling-policy interface and two reference policies.
//!
//! Real policies — reactive scalers, point-forecast scalers, and the
//! paper's robust/adaptive quantile planners — live in `rpas-core`; the
//! simulator only sees this trait.

/// Outcome of the previous interval's scale request — the failure-semantics
/// half of the policy contract. Under fault injection a requested scale can
/// be rejected outright or applied with delayed provisioning; policies that
/// care (the resilience layer) read this to drive retry-with-backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScaleOutcome {
    /// No scale was requested (target matched the pool).
    #[default]
    NoChange,
    /// The request was applied normally.
    Applied,
    /// The request was applied but provisioning is delayed (extra warm-up).
    Delayed,
    /// The request failed outright; the pool is unchanged.
    Rejected,
}

/// Self-reported health of a policy's decision pipeline, polled by the
/// degradation ladder (`rpas-core`'s `ResilientManager`) after each
/// decision to drive fallback-tier descent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyHealth {
    /// The policy's inputs and internal model are behaving.
    #[default]
    Healthy,
    /// The policy is running on a degraded path (e.g. its forecaster
    /// failed and it substituted a bootstrap heuristic).
    Degraded,
}

/// What a policy can observe when deciding the next step's node count.
#[derive(Debug, Clone, Copy)]
pub struct Observation<'a> {
    /// Current simulation step (the step about to be served).
    pub step: usize,
    /// Realised workload history up to (not including) the current step.
    /// Under metric dropouts this is a *stale prefix* — it stops at the
    /// last step the metric pipeline delivered.
    pub history: &'a [f64],
    /// Nodes currently in the pool (active + warming).
    pub current_nodes: u32,
    /// Scaling threshold `θ` (max average workload per node).
    pub theta: f64,
    /// Minimum pool size.
    pub min_nodes: u32,
    /// Whether `history` extends to the previous step. `false` means the
    /// metric pipeline dropped out and the policy is looking at stale data.
    pub metrics_fresh: bool,
    /// What happened to the previous step's scale request.
    pub last_scale: ScaleOutcome,
}

impl<'a> Observation<'a> {
    /// A healthy-path observation: fresh metrics, previous scale applied
    /// cleanly. Fault-aware callers (the simulator) set the degraded
    /// fields explicitly.
    pub fn new(
        step: usize,
        history: &'a [f64],
        current_nodes: u32,
        theta: f64,
        min_nodes: u32,
    ) -> Self {
        Self {
            step,
            history,
            current_nodes,
            theta,
            min_nodes,
            metrics_fresh: true,
            last_scale: ScaleOutcome::NoChange,
        }
    }
}

/// A horizontal-scaling policy: decides the target node count for the
/// upcoming interval.
pub trait ScalingPolicy {
    /// Display name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Target number of compute nodes for the next interval.
    fn decide(&mut self, obs: &Observation<'_>) -> u32;

    /// Health of the decision just made (polled after `decide`). The
    /// default is always-healthy; predictive policies override this to
    /// report forecaster failures so the resilience layer can demote them.
    fn health(&self) -> PolicyHealth {
        PolicyHealth::Healthy
    }
}

/// Always requests the same node count (testing / static provisioning).
#[derive(Debug, Clone, Copy)]
pub struct FixedPolicy(
    /// The constant target.
    pub u32,
);

impl ScalingPolicy for FixedPolicy {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn decide(&mut self, _obs: &Observation<'_>) -> u32 {
        self.0
    }
}

/// Clairvoyant policy that knows the whole future workload — the
/// minimum-cost feasible allocation, the lower bound the simulator's
/// tests compare against.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct OraclePolicy {
    future: Vec<f64>,
}

#[cfg(test)]
impl OraclePolicy {
    /// New oracle over the full workload trace (indexed by step).
    pub(crate) fn new(future: Vec<f64>) -> Self {
        Self { future }
    }
}

#[cfg(test)]
impl ScalingPolicy for OraclePolicy {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn decide(&mut self, obs: &Observation<'_>) -> u32 {
        let w = self.future.get(obs.step).copied().unwrap_or(0.0);
        rpas_metrics::provisioning::required_nodes(w, obs.theta, obs.min_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_ignores_observation() {
        let mut p = FixedPolicy(7);
        let obs = Observation::new(0, &[], 1, 60.0, 1);
        assert_eq!(p.decide(&obs), 7);
        assert_eq!(p.health(), PolicyHealth::Healthy);
    }

    #[test]
    fn oracle_allocates_exact_requirement() {
        let mut p = OraclePolicy::new(vec![30.0, 130.0, 0.0]);
        let mk = |step| Observation::new(step, &[], 1, 60.0, 1);
        assert_eq!(p.decide(&mk(0)), 1);
        assert_eq!(p.decide(&mk(1)), 3);
        assert_eq!(p.decide(&mk(2)), 1); // min_nodes floor
        assert_eq!(p.decide(&mk(3)), 1); // beyond trace: floor
    }

    #[test]
    fn observation_new_defaults_to_healthy_path() {
        let obs = Observation::new(3, &[1.0], 2, 60.0, 1);
        assert!(obs.metrics_fresh);
        assert_eq!(obs.last_scale, ScaleOutcome::NoChange);
    }
}
