//! End-to-end predictive scaling policies: a forecaster plus the manager,
//! replanning on a rolling horizon, exposed as
//! [`rpas_simdb::ScalingPolicy`] so they drop into the simulator.

use crate::manager::RobustAutoScalingManager;
use rpas_forecast::Forecaster;
use rpas_metrics::provisioning::required_nodes;
use rpas_simdb::{Observation, PolicyHealth, ScalingPolicy};

/// Rolling replan parameters: the online policies replan on exactly the
/// grid of the offline rolling-origin protocol, so this is the same
/// `(context, horizon)` pair as [`crate::RollingSpec`] — kept under its
/// established name here.
pub use crate::eval::RollingSpec as ReplanSchedule;

/// Bootstrap behaviour while the realised history is still shorter than
/// the context window: size the cluster reactively for the recent peak.
fn bootstrap_target(obs: &Observation<'_>) -> u32 {
    let peak = obs.history.iter().cloned().fold(0.0f64, f64::max);
    required_nodes(peak, obs.theta, obs.min_nodes)
}

/// Robust predictive policy: quantile forecaster + robust/adaptive manager.
pub struct QuantilePredictivePolicy<F: Forecaster> {
    name: &'static str,
    forecaster: F,
    manager: RobustAutoScalingManager,
    schedule: ReplanSchedule,
    plan: Vec<u32>,
    plan_start: usize,
    degraded: bool,
}

impl<F: Forecaster> QuantilePredictivePolicy<F> {
    /// New policy around a *fitted* forecaster.
    ///
    /// # Panics
    /// Panics on a schedule [`ReplanSchedule::validate`] refuses.
    pub fn new(
        name: &'static str,
        forecaster: F,
        manager: RobustAutoScalingManager,
        schedule: ReplanSchedule,
    ) -> Self {
        assert_eq!(schedule.validate(), Ok(()), "degenerate schedule");
        Self {
            name,
            forecaster,
            manager,
            schedule,
            plan: Vec::new(),
            plan_start: 0,
            degraded: false,
        }
    }

    /// Mutable access to the wrapped forecaster (the resilience ladder
    /// fits its fallback through it).
    pub(crate) fn forecaster_mut(&mut self) -> &mut F {
        &mut self.forecaster
    }

    /// The step the current rolling plan starts at: the step of the last
    /// successful replan, 0 before the first.
    pub(crate) fn plan_start(&self) -> usize {
        self.plan_start
    }

    fn position_in_plan(&self, step: usize) -> Option<usize> {
        if step >= self.plan_start && step - self.plan_start < self.plan.len() {
            Some(step - self.plan_start)
        } else {
            None
        }
    }
}

impl<F: Forecaster> ScalingPolicy for QuantilePredictivePolicy<F> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn decide(&mut self, obs: &Observation<'_>) -> u32 {
        if let Some(i) = self.position_in_plan(obs.step) {
            return self.plan[i].max(obs.min_nodes);
        }
        if obs.history.len() < self.schedule.context {
            return bootstrap_target(obs);
        }
        let ctx = &obs.history[obs.history.len() - self.schedule.context..];
        match self.forecaster.forecast_quantiles(
            ctx,
            self.schedule.horizon,
            &rpas_forecast::SCALING_LEVELS,
        ) {
            Ok(qf) => {
                self.degraded = false;
                self.plan = self.manager.plan(&qf).into_vec();
                self.plan_start = obs.step;
                self.plan[0].max(obs.min_nodes)
            }
            Err(_) => {
                // The forecaster failed at a replan boundary: substitute
                // the reactive bootstrap and flag the degradation so a
                // resilience wrapper can demote this policy.
                self.degraded = true;
                bootstrap_target(obs)
            }
        }
    }

    /// Degraded while the most recent replan attempt fell back to the
    /// reactive bootstrap because the forecaster errored (or its output
    /// was rejected by a health gate).
    fn health(&self) -> PolicyHealth {
        if self.degraded {
            PolicyHealth::Degraded
        } else {
            PolicyHealth::Healthy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::ScalingStrategy;
    use rpas_forecast::SeasonalNaive;
    use rpas_simdb::{SimConfig, SimSession};
    use rpas_traces::Trace;

    fn periodic_trace(n: usize) -> Trace {
        Trace::new("w", 600, (0..n).map(|t| 60.0 + 50.0 * ((t % 8) as f64 / 7.0)).collect())
    }

    #[test]
    fn quantile_policy_runs_end_to_end() {
        let trace = periodic_trace(200);
        let mut sn = SeasonalNaive::new(8);
        Forecaster::fit(&mut sn, &trace.values[..100]).unwrap();
        let manager =
            RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau: 0.9 });
        let mut policy = QuantilePredictivePolicy::new(
            "sn-0.9",
            sn,
            manager,
            ReplanSchedule { context: 16, horizon: 8 },
        );
        let sim = SimSession::new(&trace, SimConfig::default());
        let report = sim.run(&mut policy);
        assert_eq!(report.steps.len(), 200);
        // After bootstrap, the 0.9-quantile seasonal-naive plan on a purely
        // periodic trace should rarely under-provision.
        let tail_under = report.steps[32..]
            .iter()
            .filter(|s| s.target_nodes < required_nodes(s.workload, 60.0, 1))
            .count();
        assert!(tail_under as f64 / 168.0 < 0.1, "under {tail_under}/168");
    }

    #[test]
    fn bootstrap_uses_recent_peak() {
        let mut sn = SeasonalNaive::new(8);
        let series: Vec<f64> = (0..64).map(|t| 60.0 + (t % 8) as f64).collect();
        Forecaster::fit(&mut sn, &series).unwrap();
        let manager =
            RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau: 0.9 });
        let mut policy = QuantilePredictivePolicy::new(
            "sn",
            sn,
            manager,
            ReplanSchedule { context: 16, horizon: 8 },
        );
        let history = [100.0, 200.0]; // shorter than context
        let obs = Observation::new(2, &history, 1, 60.0, 1);
        assert_eq!(policy.decide(&obs), 4); // ceil(200/60)
    }
}
