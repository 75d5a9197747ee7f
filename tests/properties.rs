//! Cross-crate property tests: invariants of the forecast→plan pipeline
//! that must hold for arbitrary forecasts, thresholds, and strategies.

use rpas::core::{
    uncertainty_at, AdaptiveConfig, CapacityPlan, PlanningBackend, RobustAutoScalingManager,
    ScalingStrategy, StaircaseLevel, ThrashConfig, ThrashLimited,
};
use rpas::forecast::{ForecastError, QuantileForecast};
use rpas::tsmath::Matrix;
use rpas_tsmath::propcheck::{forall, Gen};
use rpas_tsmath::{prop_assert, prop_assert_eq};

/// Generate a random monotone quantile forecast on a fixed 5-level grid.
fn random_forecast(g: &mut Gen) -> QuantileForecast {
    let horizon = g.usize_in(1, 12);
    let levels = vec![0.5, 0.7, 0.8, 0.9, 0.95];
    let mut values = Matrix::zeros(horizon, levels.len());
    for h in 0..horizon {
        let mut v = g.f64_in(20.0, 320.0);
        for (i, _) in levels.iter().enumerate() {
            values[(h, i)] = v;
            v += g.f64_in(0.0, 40.0);
        }
    }
    QuantileForecast::new(levels, values).expect("finite monotone cells")
}

/// The manager's plan under `strategy` through `backend`.
fn plan_with(
    qf: &QuantileForecast,
    strategy: ScalingStrategy,
    backend: PlanningBackend,
    theta: f64,
    min_nodes: u32,
) -> CapacityPlan {
    RobustAutoScalingManager::new(theta, min_nodes, strategy).with_backend(backend).plan(qf)
}

/// The robust plan at a fixed quantile level (Eq. 6), closed form.
fn plan_fixed(qf: &QuantileForecast, tau: f64, theta: f64) -> CapacityPlan {
    plan_with(qf, ScalingStrategy::Fixed { tau }, PlanningBackend::ClosedForm, theta, 1)
}

#[test]
fn robust_plan_feasible_at_its_quantile() {
    forall("robust_plan_feasible_at_its_quantile", 48, |g| {
        let qf = random_forecast(g);
        let levels = [0.5, 0.7, 0.8, 0.9, 0.95];
        let tau = levels[g.usize_in(0, 5)];
        let theta = g.f64_in(10.0, 200.0);
        let plan = plan_fixed(&qf, tau, theta);
        for t in 0..qf.horizon() {
            let w = qf.at(t, tau).max(0.0);
            prop_assert!(
                plan.at(t) as f64 * theta >= w - 1e-6,
                "infeasible at step {t}: {} nodes for workload {w}",
                plan.at(t)
            );
        }
        Ok(())
    });
}

#[test]
fn robust_plan_monotone_in_tau() {
    forall("robust_plan_monotone_in_tau", 48, |g| {
        let qf = random_forecast(g);
        let theta = g.f64_in(10.0, 200.0);
        let lo = plan_fixed(&qf, 0.7, theta);
        let hi = plan_fixed(&qf, 0.9, theta);
        for t in 0..qf.horizon() {
            prop_assert!(hi.at(t) >= lo.at(t));
        }
        Ok(())
    });
}

#[test]
fn lp_equals_closed_form() {
    forall("lp_equals_closed_form", 48, |g| {
        let qf = random_forecast(g);
        let theta = g.f64_in(10.0, 200.0);
        let fixed = ScalingStrategy::Fixed { tau: 0.9 };
        let simplex = plan_with(&qf, fixed, PlanningBackend::Simplex, theta, 1);
        prop_assert_eq!(plan_fixed(&qf, 0.9, theta), simplex);
        Ok(())
    });
}

#[test]
fn adaptive_plan_bounded_by_fixed_plans() {
    forall("adaptive_plan_bounded_by_fixed_plans", 48, |g| {
        let qf = random_forecast(g);
        let rho = g.f64_in(0.0, 100.0);
        let theta = g.f64_in(10.0, 200.0);
        let cfg = AdaptiveConfig::new(0.7, 0.95, rho);
        let adaptive = ScalingStrategy::Adaptive(cfg);
        let adaptive = plan_with(&qf, adaptive, PlanningBackend::ClosedForm, theta, 1);
        let lo = plan_fixed(&qf, 0.7, theta);
        let hi = plan_fixed(&qf, 0.95, theta);
        for t in 0..qf.horizon() {
            prop_assert!(adaptive.at(t) >= lo.at(t));
            prop_assert!(adaptive.at(t) <= hi.at(t));
        }
        Ok(())
    });
}

/// Eq. 6 / Algorithm 1 / the staircase rule, transcribed from the paper
/// step by step — the reference every production planner path (they are
/// all `RobustAutoScalingManager`) is compared against. Deliberately
/// shares nothing with `manager.rs` but the uncertainty metric `U`
/// (Eq. 8), which has its own hand-computed tests.
fn reference_plan(
    qf: &QuantileForecast,
    strategy: &ScalingStrategy,
    theta: f64,
    min_nodes: u32,
) -> Vec<u32> {
    (0..qf.horizon())
        .map(|i| {
            let u = uncertainty_at(qf, i);
            let tau = match strategy {
                ScalingStrategy::Fixed { tau } => *tau,
                ScalingStrategy::Adaptive(c) => if u >= c.rho { c.tau_high } else { c.tau_low },
                ScalingStrategy::Staircase(ladder) => {
                    ladder.iter().rfind(|l| u >= l.min_uncertainty).expect("rung 0").tau
                }
            };
            let w = qf.at(i, tau).max(0.0);
            ((w / theta).ceil() as u32).max(min_nodes)
        })
        .collect()
}

#[test]
fn manager_matches_the_paper_transcription() {
    forall("manager_matches_the_paper_transcription", 64, |g| {
        let qf = random_forecast(g);
        let theta = g.f64_in(10.0, 200.0);
        let min_nodes = g.u32_in(1, 4);
        // Off-grid τ too, so interpolated quantiles are covered.
        let tau = g.f64_in(0.5, 0.95);
        // `U` of a `random_forecast` step spans roughly 0‥350, so ρ and the
        // rung bounds below land on both sides of it.
        let mut bound = 0.0;
        let ladder: Vec<StaircaseLevel> = [0.7, 0.8, 0.9, 0.95][..g.usize_in(1, 5)]
            .iter()
            .map(|&tau| {
                let rung = StaircaseLevel { min_uncertainty: bound, tau };
                bound += g.f64_in(1.0, 120.0);
                rung
            })
            .collect();
        for strategy in [
            ScalingStrategy::Fixed { tau },
            ScalingStrategy::Adaptive(AdaptiveConfig::new(0.7, 0.95, g.f64_in(0.0, 350.0))),
            ScalingStrategy::Staircase(ladder),
        ] {
            let expected = reference_plan(&qf, &strategy, theta, min_nodes);
            for backend in [PlanningBackend::ClosedForm, PlanningBackend::Simplex] {
                let plan = plan_with(&qf, strategy.clone(), backend, theta, min_nodes);
                prop_assert!(
                    plan.as_slice() == &expected[..],
                    "{strategy:?} via {backend:?}: {plan:?} != reference {expected:?}"
                );
            }
        }
        Ok(())
    });
}

/// One forecast cell of any magnitude: ordinary, up to ±`f64::MAX`, or
/// NaN / ±∞.
fn any_cell(g: &mut Gen) -> f64 {
    match g.usize_in(0, 10) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => f64::MAX * g.f64_in(-1.0, 1.0),
        4 => [f64::MAX, -f64::MAX][g.usize_in(0, 2)],
        _ => g.f64_in(-50.0, 400.0),
    }
}

#[test]
fn a_forecast_is_built_exactly_when_its_rows_are_finite_and_every_one_plans() {
    forall("a_forecast_is_built_exactly_when_its_rows_are_finite_and_every_one_plans", 256, |g| {
        let levels = vec![0.5, 0.7, 0.8, 0.9, 0.95];
        let horizon = g.usize_in(1, 4);
        let mut values = Matrix::zeros(horizon, levels.len());
        // Per row: ordinary cells only (crossings included), or any cells.
        for h in 0..horizon {
            let ordinary = g.usize_in(0, 2) == 0;
            for i in 0..levels.len() {
                values[(h, i)] = if ordinary { g.f64_in(-50.0, 400.0) } else { any_cell(g) };
            }
        }
        // The first step whose cells are not all finite or whose spread
        // (max − min, what rearrangement leaves between the end columns)
        // overflows.
        let bad_step = (0..horizon).find(|&h| {
            let row = values.row(h);
            let (lo, hi) = row.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
            !row.iter().all(|v| v.is_finite()) || !(hi - lo).is_finite()
        });
        let qf = match (QuantileForecast::new(levels, values), bad_step) {
            (Ok(qf), None) => qf,
            (Err(ForecastError::Unhealthy(msg)), Some(h)) => {
                prop_assert!(msg.ends_with(&format!("at step {h}")), "{msg:?} names no step {h}");
                return Ok(());
            }
            (got, bad) => return Err(format!("new gave {got:?} for first bad step {bad:?}")),
        };
        prop_assert!(qf.is_monotone());
        for _ in 0..8 {
            let level = g.f64_in(1e-9, 1.0 - 1e-9);
            for h in 0..horizon {
                prop_assert!(qf.at(h, level).is_finite(), "at({h}, {level}) = {}", qf.at(h, level));
            }
        }
        let (theta, min_nodes) = (g.f64_in(10.0, 200.0), g.u32_in(1, 4));
        let ladder = vec![
            StaircaseLevel { min_uncertainty: 0.0, tau: 0.7 },
            StaircaseLevel { min_uncertainty: g.f64_in(1.0, 100.0), tau: 0.95 },
        ];
        for strategy in [
            ScalingStrategy::Fixed { tau: g.f64_in(0.05, 0.99) },
            ScalingStrategy::Adaptive(AdaptiveConfig::new(0.5, 0.9, g.f64_in(0.0, 100.0))),
            ScalingStrategy::Staircase(ladder),
        ] {
            for backend in [PlanningBackend::ClosedForm, PlanningBackend::Simplex] {
                let plan = plan_with(&qf, strategy.clone(), backend, theta, min_nodes);
                prop_assert_eq!(plan.len(), horizon);
                prop_assert!(plan.as_slice().iter().all(|&c| c >= min_nodes), "{plan:?}");
            }
        }
        Ok(())
    });
}

#[test]
fn uncertainty_nonnegative() {
    forall("uncertainty_nonnegative", 48, |g| {
        let qf = random_forecast(g);
        for t in 0..qf.horizon() {
            prop_assert!(uncertainty_at(&qf, t) >= -1e-12);
        }
        Ok(())
    });
}

/// An inner policy asking for `wants[step]`.
struct Scripted(Vec<u32>);

impl rpas::simdb::ScalingPolicy for Scripted {
    fn name(&self) -> &'static str {
        "scripted"
    }
    fn decide(&mut self, obs: &rpas::simdb::Observation<'_>) -> u32 {
        self.0[obs.step]
    }
}

#[test]
fn smoothing_respects_delta_limit() {
    forall("smoothing_respects_delta_limit", 48, |g| {
        // Whatever the inner policy asks for, with or without a cooldown,
        // consecutive granted targets differ by at most `max_step_delta`.
        let max_delta = g.u32_in(1, 4);
        let cfg = ThrashConfig { max_step_delta: max_delta, direction_cooldown: g.usize_in(0, 4) };
        let wants: Vec<u32> = (0..g.usize_in(1, 24)).map(|_| g.u32_in(0, 40)).collect();
        let mut limited = ThrashLimited::new(Scripted(wants.clone()), cfg);
        let mut prev = g.u32_in(1, 10);
        for step in 0..wants.len() {
            let obs = rpas::simdb::Observation::new(step, &[], prev, 60.0, 1);
            let granted = rpas::simdb::ScalingPolicy::decide(&mut limited, &obs);
            let d = granted.abs_diff(prev);
            prop_assert!(d <= max_delta, "delta {d} at step {step}");
            prev = granted;
        }
        Ok(())
    });
}

/// A hostile primary forecaster for the resilience property: depending on
/// `mode` it errors outright, emits infinities, emits implausibly huge
/// values, or behaves sanely. Every hostile mode must be absorbed by the
/// health gate + fallback chain without the granted target ever leaving
/// the `[min_nodes, max_nodes]` envelope.
struct HostileForecaster {
    mode: u8,
    scale: f64,
}

impl rpas::forecast::Forecaster for HostileForecaster {
    fn name(&self) -> &'static str {
        "hostile"
    }
    fn fit(&mut self, _series: &[f64]) -> Result<(), rpas::forecast::ForecastError> {
        Ok(())
    }
    fn forecast_quantiles(
        &self,
        _context: &[f64],
        horizon: usize,
        levels: &[f64],
    ) -> Result<rpas::forecast::QuantileForecast, rpas::forecast::ForecastError> {
        let fill = match self.mode {
            0 => return Err(rpas::forecast::ForecastError::NotFitted),
            1 => f64::INFINITY,
            2 => 1e12,
            _ => self.scale,
        };
        let mut values = Matrix::zeros(horizon, levels.len());
        for h in 0..horizon {
            for i in 0..levels.len() {
                values[(h, i)] = fill;
            }
        }
        rpas::forecast::QuantileForecast::new(levels.to_vec(), values)
    }
}

/// Records every raw target the wrapped policy emits, before the
/// simulator applies its own clamps.
struct Recorder<P> {
    inner: P,
    emitted: Vec<u32>,
}

impl<P: rpas::simdb::ScalingPolicy> rpas::simdb::ScalingPolicy for Recorder<P> {
    fn name(&self) -> &'static str {
        "recorder"
    }
    fn decide(&mut self, obs: &rpas::simdb::Observation<'_>) -> u32 {
        let t = self.inner.decide(obs);
        self.emitted.push(t);
        t
    }
}

#[test]
fn resilient_targets_never_leave_the_envelope() {
    use rpas::core::{
        ForecastHealthGate, QuantilePredictivePolicy, ReplanSchedule, ResilienceConfig,
        ResilientManager, RobustAutoScalingManager, ScalingStrategy,
    };
    use rpas::simdb::{FaultConfig, FaultPlan, SimConfig, SimSession};
    use rpas::traces::Trace;

    forall("resilient_targets_never_leave_the_envelope", 24, |g| {
        let values = g.vec_f64(0.0, 400.0, 24, 120);
        let steps = values.len();
        let trace = Trace::new("w", 600, values);
        let theta = g.f64_in(10.0, 150.0);
        let min_nodes = g.u32_in(1, 4);
        let max_nodes = min_nodes + g.u32_in(1, 24);
        let fcfg = FaultConfig {
            scale_fail_prob: g.f64_in(0.0, 0.5),
            provision_delay_prob: g.f64_in(0.0, 0.5),
            provision_delay_max_steps: g.u32_in(1, 5),
            node_crash_prob: g.f64_in(0.0, 0.2),
            metric_dropout_prob: g.f64_in(0.0, 0.5),
            anomaly_start_prob: g.f64_in(0.0, 0.2),
            anomaly_max_steps: g.u32_in(1, 10),
            anomaly_max_mult: g.f64_in(1.1, 5.0),
        };
        let plan = FaultPlan::build(fcfg, g.u64(), steps);

        let hostile = HostileForecaster { mode: g.u8() % 4, scale: g.f64_in(1.0, 300.0) };
        let primary = QuantilePredictivePolicy::new(
            "hostile-primary",
            ForecastHealthGate::new(hostile),
            RobustAutoScalingManager::new(theta, min_nodes, ScalingStrategy::Fixed { tau: 0.9 }),
            ReplanSchedule { context: 8, horizon: 8 },
        );
        let rcfg = ResilienceConfig {
            max_nodes,
            max_step_delta: g.u32_in(1, 64),
            max_retries: g.u32_in(0, 5),
            retry_backoff_steps: g.u32_in(0, 3),
            probation_steps: g.usize_in(1, 16),
            naive_period: g.usize_in(1, 12),
            naive_horizon: g.usize_in(1, 12),
            backstop_window: g.usize_in(1, 12),
        };
        let mut rec =
            Recorder { inner: ResilientManager::with_config(primary, rcfg), emitted: Vec::new() };

        let cfg = SimConfig { theta, min_nodes, ..Default::default() };
        let report = SimSession::new(&trace, cfg).with_faults(plan).run(&mut rec);
        prop_assert_eq!(report.steps.len(), steps);
        prop_assert_eq!(rec.emitted.len(), steps);
        for (t, &granted) in rec.emitted.iter().enumerate() {
            prop_assert!(
                (min_nodes..=max_nodes).contains(&granted),
                "step {t}: granted {granted} outside [{min_nodes}, {max_nodes}]"
            );
        }
        Ok(())
    });
}
