//! Graceful-degradation pipeline: a resilience wrapper around any scaling
//! policy.
//!
//! [`ResilientManager`] keeps a cloud database sized even when the
//! predictive stack misbehaves. It layers five defences on top of the
//! wrapped policy:
//!
//! 1. **Forecast health gating** — [`ForecastHealthGate`] rejects
//!    implausibly large forecasts before they reach the planner (a
//!    non-finite one cannot be built: `QuantileForecast::new` refuses it
//!    as `Unhealthy`); either way the wrapped policy then reports
//!    [`PolicyHealth::Degraded`].
//! 2. **A fallback chain** — primary predictive → seasonal-naive
//!    predictive → Reactive-Max, demoting on degradation and re-promoting
//!    optimistically after a probation period.
//! 3. **An always-on Reactive-Max backstop** — whatever tier is active,
//!    the final target is never below what a Reactive-Max scaler would
//!    allocate for the realised history, so resilience never trades
//!    QoS for caution.
//! 4. **Hold-last-plan on input loss** — when the metric pipeline goes
//!    stale ([`Observation::metrics_fresh`] is false) the last granted
//!    target is held rather than re-planned from frozen data.
//! 5. **Bounded retry with backoff** — a rejected scale action
//!    ([`ScaleOutcome::Rejected`]) is retried up to a configured number
//!    of times, waiting a backoff interval between attempts.
//!
//! Every transition is one `resilience/*` catalogue event, recorded with
//! its counter in one call, so a trace replay reconstructs the full
//! degradation ladder and the registry holds its sums.

use crate::autoscaler::{QuantilePredictivePolicy, ReplanSchedule};
use crate::manager::{RobustAutoScalingManager, ScalingStrategy};
use crate::reactive::ReactiveMax;
use crate::thrash::clamp_step;
use rpas_forecast::{ForecastError, Forecaster, QuantileForecast, SeasonalNaive};
use rpas_obs::{catalog, Obs};
use rpas_simdb::{Observation, PolicyHealth, ScaleOutcome, ScalingPolicy};
use rpas_telemetry::{Recorder, Telemetry};

/// Forecast plausibility gate: wraps a [`Forecaster`] and converts
/// implausibly large outputs into [`ForecastError::Unhealthy`], so
/// downstream planning only ever sees sane numbers. (Finiteness needs no
/// gate: [`QuantileForecast::new`] refuses a non-finite forecast.)
///
/// "Implausibly large" means any forecast value above
/// `MAGNITUDE_FACTOR × max(context peak, MAGNITUDE_FLOOR)` — a forecast
/// two orders of magnitude above anything recently observed is treated as
/// a model failure, not a demand signal.
#[derive(Debug, Clone)]
pub struct ForecastHealthGate<F> {
    inner: F,
}

/// How far above the context peak a forecast may go before it is
/// implausible.
const MAGNITUDE_FACTOR: f64 = 100.0;
/// The peak the plausibility bound never falls below (an idle context).
const MAGNITUDE_FLOOR: f64 = 1.0;

impl<F> ForecastHealthGate<F> {
    /// Gate `inner`'s forecasts.
    pub fn new(inner: F) -> Self {
        Self { inner }
    }
}

/// Check a forecast for health problems relative to its context. Returns
/// a description of the first problem found, or `None` when healthy.
pub(crate) fn forecast_health(qf: &QuantileForecast, context: &[f64]) -> Option<String> {
    let peak = context.iter().cloned().fold(0.0f64, f64::max);
    let cap = MAGNITUDE_FACTOR * peak.max(MAGNITUDE_FLOOR);
    let values = qf.values();
    for h in 0..values.rows() {
        for &v in values.row(h) {
            if v > cap {
                return Some(format!(
                    "implausible magnitude {v:.3} at horizon {h} (cap {cap:.3})"
                ));
            }
        }
    }
    None
}

impl<F: Forecaster> Forecaster for ForecastHealthGate<F> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ForecastError> {
        self.inner.fit(series)
    }

    fn forecast_quantiles(
        &self,
        context: &[f64],
        horizon: usize,
        levels: &[f64],
    ) -> Result<QuantileForecast, ForecastError> {
        let qf = self.inner.forecast_quantiles(context, horizon, levels)?;
        match forecast_health(&qf, context) {
            None => Ok(qf),
            Some(problem) => Err(ForecastError::Unhealthy(problem)),
        }
    }
}

/// Tuning for [`ResilientManager`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Hard upper bound on the granted target (capacity clamp).
    pub max_nodes: u32,
    /// Maximum nodes added or removed per decision step (guardrail; the
    /// default is wide enough to never bind in ordinary operation).
    pub max_step_delta: u32,
    /// Retries after a rejected scale action before giving up.
    pub max_retries: u32,
    /// Steps to wait between retry attempts.
    pub retry_backoff_steps: u32,
    /// Healthy steps at a demoted tier before optimistically re-promoting.
    pub probation_steps: usize,
    /// Season length (steps) for the tier-1 seasonal-naive fallback.
    pub naive_period: usize,
    /// Replan horizon (steps) for the tier-1 fallback.
    pub naive_horizon: usize,
    /// Window (steps) of the always-on Reactive-Max backstop.
    pub backstop_window: usize,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            max_nodes: 64,
            max_step_delta: 64,
            max_retries: 3,
            retry_backoff_steps: 1,
            probation_steps: 12,
            naive_period: 144,
            naive_horizon: 12,
            backstop_window: 6,
        }
    }
}

impl ResilienceConfig {
    /// Whether the ladder can run on this tuning; [`FleetConfig::validate`]
    /// (and through it the checkpoint loader) reports the `Err`,
    /// [`ResilientManager::with_config`] panics on it.
    ///
    /// [`FleetConfig::validate`]: crate::fleet::FleetConfig::validate
    pub(crate) fn validate(&self) -> Result<(), String> {
        crate::first_failure(&[
            (self.max_nodes >= 1, "max_nodes must be at least 1"),
            (self.naive_period > 0, "naive_period must be positive"),
            (self.naive_horizon > 0, "naive_horizon must be positive"),
            (self.backstop_window > 0, "backstop_window must be positive"),
        ])
    }
}

/// Fallback-chain tiers, from most to least predictive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Tier {
    /// The wrapped primary policy.
    Primary,
    /// Seasonal-naive predictive fallback, fitted on demand.
    SeasonalNaive,
    /// Reactive-Max: always available, never degraded.
    ReactiveMax,
}

impl Tier {
    /// Stable lowercase label for obs fields and the checkpoint digest.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Tier::Primary => "primary",
            Tier::SeasonalNaive => "seasonal-naive",
            Tier::ReactiveMax => "reactive-max",
        }
    }

    fn demoted(self) -> Tier {
        match self {
            Tier::Primary => Tier::SeasonalNaive,
            _ => Tier::ReactiveMax,
        }
    }

    fn promoted(self) -> Tier {
        match self {
            Tier::ReactiveMax => Tier::SeasonalNaive,
            _ => Tier::Primary,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Retry {
    want: u32,
    left: u32,
    wait: u32,
}

type NaiveFallback = QuantilePredictivePolicy<ForecastHealthGate<SeasonalNaive>>;

/// Resilience wrapper: fallback chain + backstop + hold-last + bounded
/// retry + guardrails around any [`ScalingPolicy`]. See the module docs
/// for the full defence ladder.
pub struct ResilientManager<P> {
    primary: P,
    naive: Option<NaiveFallback>,
    backstop: ReactiveMax,
    tier: Tier,
    cfg: ResilienceConfig,
    last_target: Option<u32>,
    probation: usize,
    retry: Option<Retry>,
    rec: Recorder,
}

impl<P: ScalingPolicy> ResilientManager<P> {
    /// Wrap `primary` with explicit tuning.
    ///
    /// # Panics
    /// Panics on a degenerate config (zero `max_nodes`, period, horizon or
    /// backstop window).
    pub fn with_config(primary: P, cfg: ResilienceConfig) -> Self {
        assert_eq!(cfg.validate(), Ok(()), "invalid resilience config");
        Self {
            primary,
            naive: None,
            backstop: ReactiveMax::new(cfg.backstop_window),
            tier: Tier::Primary,
            cfg,
            last_target: None,
            probation: 0,
            retry: None,
            rec: Recorder::default(),
        }
    }

    /// Builder: attach an observability handle; every resilience
    /// transition then emits a `resilience/*` event.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.rec.set_obs(obs);
        self
    }

    /// Builder: count every `resilience/*` event into the counter its
    /// catalogue entry declares, in `tel` under `labels` (the fleet
    /// passes `tenant`).
    pub(crate) fn with_telemetry(mut self, tel: &Telemetry, labels: &[(&str, &str)]) -> Self {
        self.rec.resolve(tel, labels, &[catalog::RESILIENCE_SPAN]);
        self
    }

    /// The currently active fallback tier.
    #[cfg(test)]
    pub(crate) fn tier(&self) -> Tier {
        self.tier
    }

    /// Access the wrapped primary policy.
    pub(crate) fn primary(&self) -> &P {
        &self.primary
    }

    /// The ladder's position, for the checkpoint digest: the active tier
    /// and where the seasonal-naive fallback's plan starts, once one has
    /// been built.
    pub(crate) fn ladder(&self) -> (Tier, Option<usize>) {
        (self.tier, self.naive.as_ref().map(|n| n.plan_start()))
    }

    /// Account for the outcome of the previous step's scale request,
    /// driving the bounded-retry ladder.
    fn note_outcome(&mut self, obs: &Observation<'_>) {
        match obs.last_scale {
            ScaleOutcome::Rejected => {
                let want = self.last_target.unwrap_or(obs.current_nodes);
                match &mut self.retry {
                    None => {
                        let left = self.cfg.max_retries;
                        self.retry = (left > 0).then_some(Retry {
                            want,
                            left,
                            wait: self.cfg.retry_backoff_steps,
                        });
                        if left > 0 {
                            self.rec.emit(catalog::RESILIENCE_RETRY, |e| {
                                e.field("left", u64::from(left))
                                    .field("step", obs.step as u64)
                                    .field("want", u64::from(want));
                            });
                        } else {
                            self.emit_retry_exhausted(obs.step, want);
                        }
                    }
                    Some(r) => {
                        r.left -= 1;
                        if r.left == 0 {
                            let want = r.want;
                            self.retry = None;
                            self.emit_retry_exhausted(obs.step, want);
                        } else {
                            r.wait = self.cfg.retry_backoff_steps;
                            let (want, left) = (r.want, r.left);
                            self.rec.emit(catalog::RESILIENCE_RETRY, |e| {
                                e.field("left", u64::from(left))
                                    .field("step", obs.step as u64)
                                    .field("want", u64::from(want));
                            });
                        }
                    }
                }
            }
            ScaleOutcome::Applied | ScaleOutcome::Delayed => {
                self.retry = None;
            }
            ScaleOutcome::NoChange => {}
        }
    }

    fn emit_retry_exhausted(&self, step: usize, want: u32) {
        self.rec.emit(catalog::RESILIENCE_RETRY_EXHAUSTED, |e| {
            e.field("step", step as u64).field("want", u64::from(want));
        });
    }

    fn demote(&mut self, step: usize) {
        let from = self.tier;
        self.tier = self.tier.demoted();
        self.probation = 0;
        self.rec.emit(catalog::RESILIENCE_FALLBACK, |e| {
            e.field("from", from.label())
                .field("step", step as u64)
                .field("to", self.tier.label());
        });
    }

    /// Build and fit the tier-1 seasonal-naive fallback from the visible
    /// history: seasonal-naive behind the health gate, planned at a fixed
    /// τ = 0.9 on the configured `(naive_period, naive_horizon)` grid.
    /// `None` when even that model cannot fit (history < 2).
    fn build_naive(&self, obs: &Observation<'_>) -> Option<NaiveFallback> {
        let sn = SeasonalNaive::new(self.cfg.naive_period).with_obs(self.rec.obs().clone());
        let manager = RobustAutoScalingManager::new(
            obs.theta,
            obs.min_nodes,
            ScalingStrategy::Fixed { tau: 0.9 },
        );
        let mut fallback = QuantilePredictivePolicy::new(
            "resilient-naive",
            ForecastHealthGate::new(sn),
            manager,
            ReplanSchedule { context: self.cfg.naive_period, horizon: self.cfg.naive_horizon },
        );
        fallback.forecaster_mut().fit(obs.history).ok()?;
        Some(fallback)
    }

    /// Run the fallback chain for this step: the active tier decides; a
    /// degraded tier demotes (with an audit event) and the next tier
    /// decides in the same step, terminating at Reactive-Max.
    #[expect(clippy::expect_used, reason = "built on the lines above whenever absent")]
    fn tier_decide(&mut self, obs: &Observation<'_>) -> u32 {
        loop {
            match self.tier {
                Tier::Primary => {
                    let t = self.primary.decide(obs);
                    if self.primary.health() == PolicyHealth::Degraded {
                        self.demote(obs.step);
                        continue;
                    }
                    return t;
                }
                Tier::SeasonalNaive => {
                    if self.naive.is_none() {
                        self.naive = self.build_naive(obs);
                        if self.naive.is_none() {
                            self.demote(obs.step);
                            continue;
                        }
                    }
                    let naive = self.naive.as_mut().expect("just built");
                    let t = naive.decide(obs);
                    if naive.health() == PolicyHealth::Degraded {
                        self.naive = None; // refit on next demotion to this tier
                        self.demote(obs.step);
                        continue;
                    }
                    return t;
                }
                Tier::ReactiveMax => return self.backstop.decide(obs),
            }
        }
    }

    /// Final guardrails: per-step delta clamp, then the hard
    /// `[min_nodes, max_nodes]` bound (always applied last, so the
    /// granted target is *unconditionally* inside the envelope).
    fn guard(&mut self, obs: &Observation<'_>, want: u32) -> u32 {
        let prev = self.last_target.unwrap_or(obs.current_nodes);
        let stepped = clamp_step(prev, want, self.cfg.max_step_delta);
        let hi = self.cfg.max_nodes.max(obs.min_nodes);
        let granted = stepped.clamp(obs.min_nodes, hi);
        if granted != want {
            self.rec.emit(catalog::RESILIENCE_GUARDRAIL_CLAMP, |e| {
                e.field("granted", u64::from(granted))
                    .field("step", obs.step as u64)
                    .field("want", u64::from(want));
            });
        }
        self.last_target = Some(granted);
        granted
    }
}

impl<P: ScalingPolicy> ScalingPolicy for ResilientManager<P> {
    fn name(&self) -> &'static str {
        "resilient"
    }

    fn decide(&mut self, obs: &Observation<'_>) -> u32 {
        self.note_outcome(obs);

        // Input loss: hold the last granted plan instead of re-planning
        // from frozen metrics. (First-step staleness falls through — there
        // is nothing to hold yet.)
        if !obs.metrics_fresh {
            if let Some(held) = self.last_target {
                self.rec.emit(catalog::RESILIENCE_HOLD_LAST, |e| {
                    e.field("step", obs.step as u64).field("target", u64::from(held));
                });
                return self.guard(obs, held);
            }
        }

        // Backoff window of an active retry: hold position, except that
        // the safety backstop may still force a scale-out.
        if let Some(r) = &mut self.retry {
            if r.wait > 0 {
                r.wait -= 1;
                let floor = self.backstop.decide(obs);
                let target = obs.current_nodes.max(floor);
                return self.guard(obs, target);
            }
            // Backoff expired: re-request the rejected target.
            let want = r.want;
            let floor = self.backstop.decide(obs);
            return self.guard(obs, want.max(floor));
        }

        // Optimistic re-promotion after a clean probation period.
        if self.tier != Tier::Primary {
            self.probation += 1;
            if self.probation >= self.cfg.probation_steps {
                let from = self.tier;
                self.tier = self.tier.promoted();
                self.probation = 0;
                if self.tier == Tier::SeasonalNaive {
                    self.naive = None; // refit on fresh history
                }
                self.rec.emit(catalog::RESILIENCE_RECOVER, |e| {
                    e.field("from", from.label())
                        .field("step", obs.step as u64)
                        .field("to", self.tier.label());
                });
            }
        }

        let tier_target = self.tier_decide(obs);

        // Always-on safety floor: never allocate below Reactive-Max.
        let floor = self.backstop.decide(obs);
        let target = if floor > tier_target {
            self.rec.emit(catalog::RESILIENCE_BACKSTOP, |e| {
                e.field("floor", u64::from(floor))
                    .field("step", obs.step as u64)
                    .field("tier_target", u64::from(tier_target));
            });
            floor
        } else {
            tier_target
        };

        self.guard(obs, target)
    }

    fn health(&self) -> PolicyHealth {
        if self.tier == Tier::Primary {
            self.primary.health()
        } else {
            PolicyHealth::Degraded
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_obs::MemorySink;
    use rpas_simdb::FixedPolicy;

    /// Primary stub whose health and target are scripted per step.
    struct Scripted {
        targets: Vec<u32>,
        degraded_at: Vec<usize>,
    }

    impl ScalingPolicy for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn decide(&mut self, obs: &Observation<'_>) -> u32 {
            self.targets.get(obs.step).copied().unwrap_or(1)
        }
        fn health(&self) -> PolicyHealth {
            PolicyHealth::Healthy
        }
    }

    /// Primary that reports degraded from a given step onward.
    struct FailsAfter {
        from: usize,
        seen: usize,
    }

    impl ScalingPolicy for FailsAfter {
        fn name(&self) -> &'static str {
            "fails-after"
        }
        fn decide(&mut self, obs: &Observation<'_>) -> u32 {
            self.seen = obs.step;
            4
        }
        fn health(&self) -> PolicyHealth {
            if self.seen >= self.from {
                PolicyHealth::Degraded
            } else {
                PolicyHealth::Healthy
            }
        }
    }

    fn cfg_small() -> ResilienceConfig {
        ResilienceConfig {
            max_nodes: 16,
            naive_period: 4,
            naive_horizon: 4,
            probation_steps: 3,
            ..ResilienceConfig::default()
        }
    }

    fn count(mem: &MemorySink, name: catalog::EventName) -> u64 {
        mem.events().iter().filter(|e| e.is(name)).count() as u64
    }

    #[test]
    fn healthy_primary_passes_through_with_backstop_floor() {
        let mut m = ResilientManager::with_config(FixedPolicy(3), cfg_small());
        let h = [60.0, 120.0, 500.0]; // backstop peak 500/60 → 9 nodes
        let obs = Observation::new(3, &h, 3, 60.0, 1);
        // Fixed policy wants 3 but the Reactive-Max floor forces 9.
        assert_eq!(m.decide(&obs), 9);
        assert_eq!(m.tier(), Tier::Primary);
    }

    #[test]
    fn degraded_primary_falls_back_and_recovers_after_probation() {
        let mem = MemorySink::new();
        let mut m = ResilientManager::with_config(FailsAfter { from: 2, seen: 0 }, cfg_small())
            .with_obs(Obs::with_sink(Box::new(mem.clone())));
        let h: Vec<f64> = (0..16).map(|t| 60.0 + 10.0 * ((t % 4) as f64)).collect();
        for step in 0..2 {
            let obs = Observation::new(step, &h, 2, 60.0, 1);
            m.decide(&obs);
            assert_eq!(m.tier(), Tier::Primary);
        }
        // Step 2: primary degrades → demote to seasonal-naive.
        let obs = Observation::new(2, &h, 2, 60.0, 1);
        m.decide(&obs);
        assert_eq!(m.tier(), Tier::SeasonalNaive);
        assert_eq!(m.health(), PolicyHealth::Degraded);
        assert!(count(&mem, catalog::RESILIENCE_FALLBACK) > 0);
        // After probation_steps healthy steps, re-promote to primary —
        // whose health went healthy again (FailsAfter keys off obs.step,
        // so freeze the step below `from`... instead script recovery by
        // keeping steps ≥ 2: primary stays degraded and demotes again.
        for step in 3..6 {
            let obs = Observation::new(step, &h, 2, 60.0, 1);
            m.decide(&obs);
        }
        // Probation hit at step 5 → promoted to Primary → still degraded
        // → demoted again in the same step.
        assert!(count(&mem, catalog::RESILIENCE_RECOVER) > 0);
        assert_eq!(m.tier(), Tier::SeasonalNaive);
    }

    #[test]
    fn stale_metrics_hold_the_last_granted_target() {
        let mem = MemorySink::new();
        let mut m = ResilientManager::with_config(FixedPolicy(5), cfg_small())
            .with_obs(Obs::with_sink(Box::new(mem.clone())));
        let h = [60.0; 8];
        let fresh = Observation::new(0, &h, 1, 60.0, 1);
        let granted = m.decide(&fresh);
        assert_eq!(granted, 5);
        let mut stale = Observation::new(1, &h, 5, 60.0, 1);
        stale.metrics_fresh = false;
        assert_eq!(m.decide(&stale), granted);
        assert!(count(&mem, catalog::RESILIENCE_HOLD_LAST) > 0);
    }

    #[test]
    fn stale_metrics_on_first_step_fall_through_to_normal_decide() {
        let mut m = ResilientManager::with_config(FixedPolicy(2), cfg_small());
        let h = [60.0; 4];
        let mut stale = Observation::new(0, &h, 1, 60.0, 1);
        stale.metrics_fresh = false;
        assert_eq!(m.decide(&stale), 2);
    }

    #[test]
    fn rejected_action_is_retried_with_backoff_then_exhausted() {
        let mem = MemorySink::new();
        let cfg = ResilienceConfig {
            max_retries: 2,
            retry_backoff_steps: 1,
            ..cfg_small()
        };
        let mut m = ResilientManager::with_config(FixedPolicy(8), cfg)
            .with_obs(Obs::with_sink(Box::new(mem.clone())));
        let h = [60.0; 4];
        // Step 0: request 8 (granted 8; simulator will reject it).
        assert_eq!(m.decide(&Observation::new(0, &h, 1, 60.0, 1)), 8);
        // Step 1: told the action was rejected → retry armed, backoff
        // holds at current (backstop floor is 1 here).
        let mut o = Observation::new(1, &h, 1, 60.0, 1);
        o.last_scale = ScaleOutcome::Rejected;
        assert_eq!(m.decide(&o), 1);
        assert!(count(&mem, catalog::RESILIENCE_RETRY) > 0);
        // Step 2: backoff expired, no news (NoChange) → re-request 8.
        let o2 = Observation::new(2, &h, 1, 60.0, 1);
        assert_eq!(m.decide(&o2), 8);
        // Step 3: rejected again → last retry consumed → exhausted.
        let mut o3 = Observation::new(3, &h, 1, 60.0, 1);
        o3.last_scale = ScaleOutcome::Rejected;
        let _ = m.decide(&o3);
        let mut o4 = Observation::new(4, &h, 1, 60.0, 1);
        o4.last_scale = ScaleOutcome::Rejected;
        let _ = m.decide(&o4);
        assert!(count(&mem, catalog::RESILIENCE_RETRY_EXHAUSTED) > 0);
    }

    #[test]
    fn applied_outcome_clears_the_retry_ladder() {
        let mut m = ResilientManager::with_config(FixedPolicy(8), cfg_small());
        let h = [60.0; 4];
        let _ = m.decide(&Observation::new(0, &h, 1, 60.0, 1));
        let mut o = Observation::new(1, &h, 1, 60.0, 1);
        o.last_scale = ScaleOutcome::Rejected;
        let _ = m.decide(&o);
        assert!(m.retry.is_some());
        let mut ok = Observation::new(2, &h, 8, 60.0, 1);
        ok.last_scale = ScaleOutcome::Applied;
        let _ = m.decide(&ok);
        assert!(m.retry.is_none());
    }

    #[test]
    fn guardrails_clamp_into_the_envelope() {
        let mem = MemorySink::new();
        let cfg = ResilienceConfig { max_nodes: 6, max_step_delta: 2, ..cfg_small() };
        let mut m = ResilientManager::with_config(FixedPolicy(50), cfg)
            .with_obs(Obs::with_sink(Box::new(mem.clone())));
        let h = [60.0; 4];
        // Wants 50; step clamp from 1 allows 3; cap is 6 → granted 3.
        assert_eq!(m.decide(&Observation::new(0, &h, 1, 60.0, 1)), 3);
        assert_eq!(m.decide(&Observation::new(1, &h, 3, 60.0, 1)), 5);
        assert_eq!(m.decide(&Observation::new(2, &h, 5, 60.0, 1)), 6);
        assert_eq!(m.decide(&Observation::new(3, &h, 6, 60.0, 1)), 6);
        assert!(count(&mem, catalog::RESILIENCE_GUARDRAIL_CLAMP) > 0);
    }

    #[test]
    fn naive_tier_sizes_from_history_when_primary_fails_immediately() {
        let mut m = ResilientManager::with_config(FailsAfter { from: 0, seen: 0 }, cfg_small());
        // Periodic history with peak 120 → 2 nodes at θ=60.
        let h: Vec<f64> = (0..16).map(|t| 60.0 + 60.0 * ((t % 4 == 0) as u32 as f64)).collect();
        let obs = Observation::new(16, &h, 1, 60.0, 1);
        let granted = m.decide(&obs);
        assert_eq!(m.tier(), Tier::SeasonalNaive);
        assert!(granted >= 2, "granted {granted}");
    }

    #[test]
    fn empty_history_lands_on_reactive_max_floor() {
        // With no history at all, even seasonal-naive cannot fit, so the
        // chain terminates at Reactive-Max, which returns min_nodes.
        let mut m = ResilientManager::with_config(FailsAfter { from: 0, seen: 0 }, cfg_small());
        let obs = Observation::new(0, &[], 1, 60.0, 1);
        assert_eq!(m.decide(&obs), 1);
        assert_eq!(m.tier(), Tier::ReactiveMax);
    }

    #[test]
    fn health_gate_rejects_nonfinite_and_implausible_forecasts() {
        struct Wild(f64);
        impl Forecaster for Wild {
            fn name(&self) -> &'static str {
                "wild"
            }
            fn fit(&mut self, _s: &[f64]) -> Result<(), ForecastError> {
                Ok(())
            }
            fn forecast_quantiles(
                &self,
                _c: &[f64],
                horizon: usize,
                levels: &[f64],
            ) -> Result<QuantileForecast, ForecastError> {
                let mut v = rpas_tsmath::Matrix::zeros(horizon, levels.len());
                for h in 0..horizon {
                    for i in 0..levels.len() {
                        v[(h, i)] = self.0;
                    }
                }
                QuantileForecast::new(levels.to_vec(), v)
            }
        }
        let ctx = [100.0, 90.0];
        let gate = ForecastHealthGate::new(Wild(f64::INFINITY));
        assert!(matches!(
            gate.forecast_quantiles(&ctx, 2, &[0.5]).unwrap_err(),
            ForecastError::Unhealthy(_)
        ));
        let gate = ForecastHealthGate::new(Wild(1e9));
        assert!(matches!(
            gate.forecast_quantiles(&ctx, 2, &[0.5]).unwrap_err(),
            ForecastError::Unhealthy(_)
        ));
        // A sane forecast passes.
        let gate = ForecastHealthGate::new(Wild(110.0));
        assert!(gate.forecast_quantiles(&ctx, 2, &[0.5]).is_ok());
    }

    #[test]
    fn scripted_primary_target_still_honoured_between_events() {
        let mut m = ResilientManager::with_config(
            Scripted { targets: vec![2, 3, 4], degraded_at: vec![] },
            cfg_small(),
        );
        let h = [60.0; 4];
        assert_eq!(m.decide(&Observation::new(0, &h, 1, 60.0, 1)), 2);
        assert_eq!(m.decide(&Observation::new(1, &h, 2, 60.0, 1)), 3);
        assert_eq!(m.decide(&Observation::new(2, &h, 3, 60.0, 1)), 4);
        let _ = m.primary().degraded_at.len(); // field exercised
    }
}
