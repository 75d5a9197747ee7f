//! The Robust Auto-Scaling Manager: the façade that turns a quantile
//! forecast into a capacity plan under a chosen strategy (Fig. 2, phase ②).
//!
//! With an [`Obs`] handle attached (see
//! [`RobustAutoScalingManager::with_obs`]) the manager emits a full
//! decision audit: one `plan/decision` debug event per horizon step
//! (quantile level chosen, uncertainty signal, regime) plus one
//! `plan/summary` info event per plan (LP objective, plan delta, regime
//! switch count) — enough to replay Algorithm 1's conservative↔aggressive
//! switching from the trace alone.
//!
//! The manager checks no forecast cell: a [`QuantileForecast`] is finite
//! at every level by construction (`QuantileForecast::new` refuses a
//! non-finite cell or an overflowing spread), so its only repair is the
//! floor at zero workload.

use crate::adaptive::{AdaptiveConfig, StaircaseLevel};
use crate::plan::{plan_point, plan_point_lp, CapacityPlan};
use crate::uncertainty::uncertainty_at;
use rpas_forecast::QuantileForecast;
use rpas_obs::{catalog, Level, Obs};

/// How conservative the manager is, per Definitions 4–5.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalingStrategy {
    /// One quantile level for the whole horizon (Eq. 6).
    Fixed {
        /// The quantile level `τ`.
        tau: f64,
    },
    /// Algorithm 1: two levels switched by the uncertainty metric.
    Adaptive(AdaptiveConfig),
    /// The staircase extension: a ladder of `(uncertainty, τ)` rungs.
    Staircase(Vec<StaircaseLevel>),
}

impl ScalingStrategy {
    /// Whether the manager can plan under this strategy: every `τ ∈ (0,1)`;
    /// `τ₁ ≤ τ₂` and a finite `ρ ≥ 0` for Algorithm 1; a non-empty staircase
    /// that starts at uncertainty 0 (so every step matches a rung) and
    /// ascends in both uncertainty and `τ`. The manager's `new` asserts it.
    pub fn validate(&self) -> Result<(), String> {
        let in_unit = |tau: f64| tau > 0.0 && tau < 1.0;
        let tau_rule = "tau must be in (0,1)";
        match self {
            ScalingStrategy::Fixed { tau } => crate::first_failure(&[(in_unit(*tau), tau_rule)]),
            ScalingStrategy::Adaptive(AdaptiveConfig { tau_low: lo, tau_high: hi, rho }) => {
                let finite_rho = *rho >= 0.0 && rho.is_finite();
                crate::first_failure(&[
                    (0.0 < *lo && lo <= hi && *hi < 1.0, "need 0 < τ₁ ≤ τ₂ < 1"),
                    (finite_rho, "uncertainty threshold must be non-negative and finite"),
                ])
            }
            ScalingStrategy::Staircase(levels) => {
                // config contract: the first rung must be written as literal 0.0 so every uncertainty maps to a rung
                let from_zero = levels.first().is_none_or(|l| l.min_uncertainty == 0.0);
                let ascending = levels.windows(2).all(|w| {
                    w[0].min_uncertainty < w[1].min_uncertainty && w[0].tau <= w[1].tau
                });
                crate::first_failure(&[
                    (!levels.is_empty(), "staircase needs at least one rung"),
                    (from_zero, "first rung must start at uncertainty 0"),
                    (ascending, "rungs must ascend in both uncertainty and tau"),
                    (levels.iter().all(|l| in_unit(l.tau)), tau_rule),
                ])
            }
        }
    }

    /// Short name used in decision-audit events.
    fn audit_name(&self) -> &'static str {
        match self {
            ScalingStrategy::Fixed { .. } => "fixed",
            ScalingStrategy::Adaptive(_) => "adaptive",
            ScalingStrategy::Staircase(_) => "staircase",
        }
    }
}

/// Which solver realises the optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanningBackend {
    /// Closed-form per-step ceiling (the separable optimum).
    ClosedForm,
    /// The `rpas-lp` two-phase simplex — the paper's "standard linear
    /// programming solvers" path; same answers, measurably slower (see
    /// the `planners` bench).
    Simplex,
}

/// One audited per-step choice: which quantile level the strategy picked
/// and why. `uncertainty` is `None` for the fixed strategy (it never
/// consults the signal).
#[derive(Debug, Clone, Copy, PartialEq)]
struct StepChoice {
    tau: f64,
    uncertainty: Option<f64>,
    /// Whether the conservative branch was taken (Algorithm 1's `τ₂`, or
    /// any rung above the bottom of the staircase).
    conservative: bool,
}

/// Robust Auto-Scaling Manager.
///
/// ```
/// use rpas_core::{RobustAutoScalingManager, ScalingStrategy};
/// use rpas_forecast::QuantileForecast;
/// use rpas_tsmath::Matrix;
///
/// // A one-step forecast: median 100, 0.9-quantile 130.
/// let f = QuantileForecast::new(
///     vec![0.5, 0.9],
///     Matrix::from_rows(&[vec![100.0, 130.0]]),
/// )?;
/// let manager = RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau: 0.9 });
/// // Covering the 0.9-quantile workload (130) at θ=60 needs 3 nodes.
/// assert_eq!(manager.plan(&f).as_slice(), &[3]);
/// # Ok::<(), rpas_forecast::ForecastError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RobustAutoScalingManager {
    theta: f64,
    min_nodes: u32,
    strategy: ScalingStrategy,
    backend: PlanningBackend,
    obs: Obs,
}

impl RobustAutoScalingManager {
    /// New manager with the closed-form backend and no observability
    /// (attach with [`RobustAutoScalingManager::with_obs`]).
    ///
    /// # Panics
    /// Panics on a `theta` [`rpas_metrics::validate_theta`] refuses or a
    /// strategy [`ScalingStrategy::validate`] refuses.
    pub fn new(theta: f64, min_nodes: u32, strategy: ScalingStrategy) -> Self {
        let valid = rpas_metrics::validate_theta(theta).and_then(|()| strategy.validate());
        assert_eq!(valid, Ok(()), "invalid manager config");
        Self {
            theta,
            min_nodes,
            strategy,
            backend: PlanningBackend::ClosedForm,
            obs: Obs::noop(),
        }
    }

    /// Builder: switch the solving backend.
    pub fn with_backend(mut self, backend: PlanningBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Builder: attach an observability handle. Every subsequent
    /// [`RobustAutoScalingManager::plan`] emits the decision audit.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Scaling threshold `θ`.
    pub(crate) fn theta(&self) -> f64 {
        self.theta
    }

    /// Minimum pool size.
    pub(crate) fn min_nodes(&self) -> u32 {
        self.min_nodes
    }

    /// The strategy's choice at one horizon step.
    #[expect(clippy::expect_used, reason = "new() asserts the staircase has a rung")]
    fn choose(&self, forecast: &QuantileForecast, i: usize) -> StepChoice {
        match &self.strategy {
            ScalingStrategy::Fixed { tau } => {
                StepChoice { tau: *tau, uncertainty: None, conservative: false }
            }
            ScalingStrategy::Adaptive(cfg) => {
                let u = uncertainty_at(forecast, i);
                let conservative = u >= cfg.rho;
                StepChoice {
                    tau: if conservative { cfg.tau_high } else { cfg.tau_low },
                    uncertainty: Some(u),
                    conservative,
                }
            }
            ScalingStrategy::Staircase(levels) => {
                let u = uncertainty_at(forecast, i);
                let bottom = levels.first().expect("non-empty ladder");
                let rung =
                    levels.iter().rev().find(|l| u >= l.min_uncertainty).unwrap_or(bottom);
                StepChoice {
                    tau: rung.tau,
                    uncertainty: Some(u),
                    conservative: rung.min_uncertainty > bottom.min_uncertainty,
                }
            }
        }
    }

    /// The per-step workload bound the strategy selects from the forecast
    /// (the `ŵ_t^{τ_t}` series fed into the optimization). Emits one
    /// `plan/decision` debug event per step when observability is on. A
    /// negative workload floors at zero.
    pub(crate) fn effective_workload(&self, forecast: &QuantileForecast) -> Vec<f64> {
        (0..forecast.horizon())
            .map(|i| {
                let choice = self.choose(forecast, i);
                let w = forecast.at(i, choice.tau).max(0.0);
                // Keys in catalogue order, so each field is appended.
                self.obs.emit(catalog::PLAN_DECISION, |e| {
                    if choice.uncertainty.is_some() {
                        let regime = if choice.conservative { "conservative" } else { "aggressive" };
                        e.field("regime", regime);
                    }
                    if let ScalingStrategy::Adaptive(cfg) = &self.strategy {
                        e.field("rho", cfg.rho);
                    }
                    e.field("step", i)
                        .field("strategy", self.strategy.audit_name())
                        .field("tau", choice.tau);
                    if let Some(u) = choice.uncertainty {
                        e.field("uncertainty", u);
                    }
                    e.field("workload", w);
                });
                w
            })
            .collect()
    }

    /// Produce the capacity plan for a forecast horizon. With
    /// observability on, follows the per-step decision audit with a
    /// `plan/summary` info event: the LP objective (`Σ_t c_t`, what the
    /// optimization minimises), the plan delta (`Σ_t |c_t − c_{t−1}|`,
    /// how much scaling churn the plan demands), and Algorithm 1's
    /// conservative-step and regime-switch counts.
    pub fn plan(&self, forecast: &QuantileForecast) -> CapacityPlan {
        let w = self.effective_workload(forecast);
        let plan = match self.backend {
            PlanningBackend::ClosedForm => plan_point(&w, self.theta, self.min_nodes),
            PlanningBackend::Simplex => plan_point_lp(&w, self.theta, self.min_nodes),
        };
        if self.obs.enabled(Level::Info) {
            let nodes = plan.as_slice();
            let delta: u64 =
                nodes.windows(2).map(|p| p[1].abs_diff(p[0]) as u64).sum();
            let (mut conservative, mut switches) = (0u64, 0u64);
            let mut prev: Option<bool> = None;
            for i in 0..forecast.horizon() {
                let c = self.choose(forecast, i);
                if c.uncertainty.is_some() {
                    conservative += u64::from(c.conservative);
                    if prev.is_some_and(|p| p != c.conservative) {
                        switches += 1;
                    }
                    prev = Some(c.conservative);
                }
            }
            self.obs.emit(catalog::PLAN_SUMMARY, |e| {
                e.field("conservative_steps", conservative)
                    .field("horizon", plan.len())
                    .field("objective_node_steps", plan.total_nodes())
                    .field("plan_delta", delta)
                    .field("regime_switches", switches)
                    .field("strategy", self.strategy.audit_name())
                    .field("theta", self.theta);
            });
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_obs::MemorySink;
    use rpas_tsmath::Matrix;

    fn forecast() -> QuantileForecast {
        QuantileForecast::new(
            vec![0.1, 0.5, 0.9, 0.95],
            Matrix::from_rows(&[
                vec![99.0, 100.0, 101.0, 102.0],
                vec![60.0, 100.0, 180.0, 220.0],
            ]),
        )
        .unwrap()
    }

    /// Three steps on levels {0.5, 0.9}, the last with a negative median.
    fn forecast_with_negative_median() -> QuantileForecast {
        QuantileForecast::new(
            vec![0.5, 0.9],
            Matrix::from_rows(&[vec![100.0, 130.0], vec![50.0, 80.0], vec![-5.0, 10.0]]),
        )
        .unwrap()
    }

    fn fixed(tau: f64) -> RobustAutoScalingManager {
        RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau })
    }

    #[test]
    fn simplex_backend_agrees_with_closed_form() {
        let adaptive = ScalingStrategy::Adaptive(AdaptiveConfig::new(0.5, 0.95, 5.0));
        let mut rows =
            vec![(forecast(), ScalingStrategy::Fixed { tau: 0.9 }), (forecast(), adaptive)];
        for tau in [0.5, 0.6, 0.75, 0.9] {
            rows.push((forecast_with_negative_median(), ScalingStrategy::Fixed { tau }));
        }
        for (f, strategy) in rows {
            let closed = RobustAutoScalingManager::new(60.0, 1, strategy.clone());
            let simplex = closed.clone().with_backend(PlanningBackend::Simplex);
            assert_eq!(closed.plan(&f), simplex.plan(&f), "{strategy:?}");
        }
    }

    #[test]
    fn effective_workload_reflects_strategy() {
        // Per forecast, ascending τ: (τ, workload bound, plan at θ = 60).
        // Each plan must cover the one before it.
        let groups = [
            (
                forecast(),
                vec![(0.5, vec![100.0, 100.0], vec![2, 2]), (0.95, vec![102.0, 220.0], vec![2, 4])],
            ),
            (
                forecast_with_negative_median(),
                vec![
                    // The negative median clamps to 0, so the floor applies.
                    (0.5, vec![100.0, 50.0, 0.0], vec![2, 1, 1]),
                    // τ = 0.7 interpolates halfway between the 0.5 and 0.9 columns.
                    (0.7, vec![115.0, 65.0, 2.5], vec![2, 2, 1]),
                    (0.9, vec![130.0, 80.0, 10.0], vec![3, 2, 1]),
                ],
            ),
        ];
        for (f, rows) in groups {
            let mut below: Vec<u32> = Vec::new();
            for (tau, workload, nodes) in rows {
                let w = fixed(tau).effective_workload(&f);
                assert_eq!(w.len(), workload.len());
                for (got, want) in w.iter().zip(&workload) {
                    assert!((got - want).abs() < 1e-9, "τ {tau}: {w:?} != {workload:?}");
                }
                let plan = fixed(tau).plan(&f);
                assert_eq!(plan.as_slice(), &nodes[..], "τ {tau}");
                assert!(below.iter().zip(&nodes).all(|(b, c)| b <= c), "τ {tau} not monotone");
                below = nodes;
            }
        }
    }

    #[test]
    fn adaptive_and_staircase_plans_lie_between_their_anchors() {
        // (strategy, τ of the lower anchor, τ of the upper anchor, plan):
        // every plan lies between the fixed plans at its anchors, so equal
        // anchors pin it to that fixed plan. Step 0 of `forecast()` is
        // tight (U ≈ 1.1), step 1 wide.
        let adaptive = |lo, hi, rho| ScalingStrategy::Adaptive(AdaptiveConfig::new(lo, hi, rho));
        let ladder = |rungs: &[(f64, f64)]| {
            let rungs = rungs.iter().map(|&(min_uncertainty, tau)| StaircaseLevel {
                min_uncertainty,
                tau,
            });
            ScalingStrategy::Staircase(rungs.collect())
        };
        let rows = [
            // Algorithm 1: τ₁ on the tight step, τ₂ on the wide one.
            (adaptive(0.5, 0.95, 5.0), 0.5, 0.95, [2, 4]),
            // ρ = 0: every step is conservative — the τ₂ plan.
            (adaptive(0.5, 0.95, 0.0), 0.95, 0.95, [2, 4]),
            // Huge ρ: every step is aggressive — the τ₁ plan.
            (adaptive(0.5, 0.95, 1e9), 0.5, 0.5, [2, 2]),
            // τ₁ = τ₂ reduces to the fixed plan.
            (adaptive(0.9, 0.9, 3.0), 0.9, 0.9, [2, 3]),
            // Three rungs: the tight step stays on the bottom one, the
            // wide step reaches the top.
            (ladder(&[(0.0, 0.5), (2.0, 0.9), (10.0, 0.95)]), 0.5, 0.95, [2, 4]),
            // One rung is the fixed plan.
            (ladder(&[(0.0, 0.9)]), 0.9, 0.9, [2, 3]),
        ];
        for (strategy, lo, hi, nodes) in rows {
            let plan = RobustAutoScalingManager::new(60.0, 1, strategy.clone()).plan(&forecast());
            assert_eq!(plan.as_slice(), &nodes, "{strategy:?}");
            let (lo, hi) = (fixed(lo).plan(&forecast()), fixed(hi).plan(&forecast()));
            for t in 0..plan.len() {
                assert!(lo.at(t) <= plan.at(t) && plan.at(t) <= hi.at(t), "{strategy:?} step {t}");
            }
        }
    }

    #[test]
    fn observability_does_not_change_the_plan() {
        let cfg = AdaptiveConfig::new(0.5, 0.95, 5.0);
        let dark = RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Adaptive(cfg));
        let lit = dark.clone().with_obs(Obs::with_sink(Box::new(MemorySink::new())));
        assert_eq!(dark.plan(&forecast()), lit.plan(&forecast()));
    }

    #[test]
    fn adaptive_plan_emits_decision_audit() {
        let mem = MemorySink::new();
        let cfg = AdaptiveConfig::new(0.5, 0.95, 5.0);
        let m = RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Adaptive(cfg))
            .with_obs(Obs::with_sink(Box::new(mem.clone())));
        let plan = m.plan(&forecast());

        let events = mem.events();
        let decisions: Vec<_> = events.iter().filter(|e| e.is(catalog::PLAN_DECISION)).collect();
        assert_eq!(decisions.len(), 2, "one decision per horizon step");
        // Step 0 is tight (aggressive), step 1 wide (conservative) — see
        // the adaptive tests deriving the same split.
        assert_eq!(decisions[0].get("regime"), Some(rpas_obs::Value::Str("aggressive".into())));
        assert_eq!(decisions[1].get("regime"), Some(rpas_obs::Value::Str("conservative".into())));
        assert_eq!(decisions[0].get("tau"), Some(rpas_obs::Value::F64(0.5)));
        assert_eq!(decisions[1].get("tau"), Some(rpas_obs::Value::F64(0.95)));

        let summary = events.iter().find(|e| e.is(catalog::PLAN_SUMMARY)).expect("plan summary");
        let nodes = rpas_obs::Value::U64(plan.total_nodes());
        assert_eq!(summary.get("objective_node_steps"), Some(nodes));
        assert_eq!(summary.get("conservative_steps"), Some(rpas_obs::Value::U64(1)));
        assert_eq!(summary.get("regime_switches"), Some(rpas_obs::Value::U64(1)));
    }

    #[test]
    fn fixed_strategy_audit_has_no_uncertainty() {
        let mem = MemorySink::new();
        let m = RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau: 0.9 })
            .with_obs(Obs::with_sink(Box::new(mem.clone())));
        let _ = m.plan(&forecast());
        let events = mem.events();
        for d in events.iter().filter(|e| e.is(catalog::PLAN_DECISION)) {
            assert!(d.get("uncertainty").is_none());
            assert!(d.get("regime").is_none());
        }
        let summary = events.iter().find(|e| e.is(catalog::PLAN_SUMMARY)).unwrap();
        assert_eq!(summary.get("regime_switches"), Some(rpas_obs::Value::U64(0)));
    }

    #[test]
    #[should_panic(expected = "tau must be in (0,1)")]
    fn rejects_bad_fixed_tau() {
        RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau: 0.0 });
    }

    fn staircase(rungs: &[(f64, f64)]) -> RobustAutoScalingManager {
        let ladder =
            rungs.iter().map(|&(min_uncertainty, tau)| StaircaseLevel { min_uncertainty, tau });
        RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Staircase(ladder.collect()))
    }

    #[test]
    #[should_panic(expected = "staircase needs at least one rung")]
    fn rejects_empty_ladder() {
        staircase(&[]);
    }

    #[test]
    #[should_panic(expected = "first rung must start at uncertainty 0")]
    fn rejects_ladder_not_starting_at_zero() {
        staircase(&[(1.0, 0.9)]);
    }

    #[test]
    #[should_panic(expected = "rungs must ascend in both uncertainty and tau")]
    fn rejects_non_ascending_uncertainty() {
        staircase(&[(0.0, 0.5), (4.0, 0.9), (2.0, 0.95)]);
    }

    #[test]
    #[should_panic(expected = "rungs must ascend in both uncertainty and tau")]
    fn rejects_descending_tau() {
        staircase(&[(0.0, 0.9), (2.0, 0.5)]);
    }

    #[test]
    #[should_panic(expected = "tau must be in (0,1)")]
    fn rejects_ladder_tau_out_of_range() {
        staircase(&[(0.0, 0.5), (2.0, 1.0)]);
    }

    fn adaptive(tau_low: f64, tau_high: f64, rho: f64) -> RobustAutoScalingManager {
        let cfg = AdaptiveConfig { tau_low, tau_high, rho };
        RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Adaptive(cfg))
    }

    #[test]
    #[should_panic(expected = "need 0 < τ₁ ≤ τ₂ < 1")]
    fn rejects_a_literal_adaptive_level_out_of_range() {
        adaptive(1.5, 0.9, 1.0);
    }

    #[test]
    #[should_panic(expected = "need 0 < τ₁ ≤ τ₂ < 1")]
    fn rejects_a_literal_inverted_adaptive_pair() {
        adaptive(0.95, 0.8, 1.0);
    }

    #[test]
    #[should_panic(expected = "need 0 < τ₁ ≤ τ₂ < 1")]
    fn rejects_a_literal_nan_adaptive_level() {
        adaptive(f64::NAN, 0.9, 1.0);
    }

    #[test]
    #[should_panic(expected = "uncertainty threshold must be non-negative")]
    fn rejects_a_literal_nan_rho() {
        adaptive(0.8, 0.95, f64::NAN);
    }

    #[test]
    fn accepts_a_well_formed_literal_adaptive_config() {
        adaptive(0.8, 0.95, 1.0);
    }

    #[test]
    #[should_panic(expected = "theta must be positive and finite, got inf")]
    fn rejects_an_infinite_theta() {
        RobustAutoScalingManager::new(f64::INFINITY, 1, ScalingStrategy::Fixed { tau: 0.9 });
    }

    #[test]
    fn validate_pins_every_strategy_rule() {
        use ScalingStrategy::{Adaptive, Fixed, Staircase};
        let literal = |tau_low, tau_high, rho| Adaptive(AdaptiveConfig { tau_low, tau_high, rho });
        let ladder = |rungs: &[(f64, f64)]| {
            let rung = |&(min_uncertainty, tau): &(f64, f64)| StaircaseLevel { min_uncertainty, tau };
            Staircase(rungs.iter().map(rung).collect())
        };
        let pair = "need 0 < τ₁ ≤ τ₂ < 1";
        let rho = "uncertainty threshold must be non-negative and finite";
        let ascend = "rungs must ascend in both uncertainty and tau";
        let cases = [
            (Fixed { tau: 0.0 }, "tau must be in (0,1)"),
            (Fixed { tau: 1.0 }, "tau must be in (0,1)"),
            (Fixed { tau: -0.5 }, "tau must be in (0,1)"),
            (Fixed { tau: f64::NAN }, "tau must be in (0,1)"),
            (Fixed { tau: f64::INFINITY }, "tau must be in (0,1)"),
            (literal(0.0, 0.9, 1.0), pair),
            (literal(0.5, 1.0, 1.0), pair),
            (literal(0.95, 0.8, 1.0), pair),
            (literal(f64::NAN, 0.9, 1.0), pair),
            (literal(0.5, f64::NAN, 1.0), pair),
            (literal(0.8, 0.95, -1.0), rho),
            (literal(0.8, 0.95, f64::NAN), rho),
            (literal(0.8, 0.95, f64::INFINITY), rho),
            (ladder(&[]), "staircase needs at least one rung"),
            (ladder(&[(1.0, 0.9)]), "first rung must start at uncertainty 0"),
            (ladder(&[(f64::NAN, 0.9)]), "first rung must start at uncertainty 0"),
            (ladder(&[(0.0, 0.5), (4.0, 0.9), (2.0, 0.95)]), ascend),
            (ladder(&[(0.0, 0.5), (0.0, 0.9)]), ascend),
            (ladder(&[(0.0, 0.9), (2.0, 0.5)]), ascend),
            (ladder(&[(0.0, 0.5), (f64::NAN, 0.9)]), ascend),
            (ladder(&[(0.0, 0.5), (2.0, 1.0)]), "tau must be in (0,1)"),
            (ladder(&[(0.0, 0.0)]), "tau must be in (0,1)"),
        ];
        for (strategy, why) in cases {
            let err = strategy.validate().unwrap_err();
            assert!(err.starts_with(why), "{strategy:?}: {err}");
        }
        for ok in [
            Fixed { tau: 0.5 },
            literal(0.8, 0.8, 0.0),
            literal(0.8, 0.95, 1e300),
            ladder(&[(0.0, 0.5)]),
            ladder(&[(0.0, 0.5), (2.0, 0.5), (4.0, 0.99)]),
        ] {
            assert_eq!(ok.validate(), Ok(()), "{ok:?}");
        }
    }
}
