//! `cycle_deepar` / `cycle_tft`: one rolling-origin decision cycle per op
//! — context window → quantile forecast → adaptive plan → the plan
//! replayed against the realised window in the simulator → scores.

use crate::clock::{now_ns, timed};
use crate::config::{self, Workload};
use crate::outcome::{Budget, ForecastLayer, Outcome, References};
use crate::spans::Tracer;
use crate::stats::Fnv;
use rpas_core::{PlanningBackend, RobustAutoScalingManager, RollingSpec};
use rpas_forecast::{DeepAr, Forecaster, QuantileForecast, Tft, SCALING_LEVELS};
use rpas_metrics::{coverage, provisioning_rates, weighted_quantile_loss};
use rpas_simdb::{Observation, ScalingPolicy, SimSession, SimulationReport};
use rpas_traces::{google_like, Trace};
use rpas_tsmath::rng::child_seed;

/// Replays a fixed plan: step `t` gets `plan[t]`.
pub struct Replay<'a>(pub &'a [u32]);

impl ScalingPolicy for Replay<'_> {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn decide(&mut self, obs: &Observation<'_>) -> u32 {
        self.0.get(obs.step).copied().unwrap_or(obs.min_nodes)
    }
}

/// Score one decision window: wQL and coverage per scaling level, then
/// the provisioning rates of the allocation actually served.
pub fn score(forecast: &QuantileForecast, actual: &[f64], allocations: &[u32]) -> Vec<f64> {
    let mut scores = Vec::with_capacity(2 * SCALING_LEVELS.len() + 4);
    for &tau in &SCALING_LEVELS {
        let preds = forecast.series(tau);
        scores.push(weighted_quantile_loss(actual, &preds, tau));
        scores.push(coverage(actual, &preds));
    }
    let p = provisioning_rates(allocations, actual, config::THETA, config::MIN_NODES);
    scores.extend([p.under_rate, p.over_rate, p.excess_node_steps, p.deficit_node_steps]);
    scores
}

/// Everything one decision cycle produced.
struct CycleOutput {
    forecast: QuantileForecast,
    plan: Vec<u32>,
    report: SimulationReport,
    /// See [`score`].
    scores: Vec<f64>,
}

/// A fitted forecaster plus the held-out series its decisions roll over.
struct Cycle {
    model: Box<dyn Forecaster>,
    test: Vec<f64>,
    spec: RollingSpec,
    manager: RobustAutoScalingManager,
    simplex: RobustAutoScalingManager,
    fit_s: f64,
}

impl Cycle {
    /// Generate the trace, fit the forecaster, run and discard warm-up ops.
    fn setup(workload: Workload, seed: u64) -> Result<Self, String> {
        let days = config::CYCLE_TRAIN_DAYS + config::CYCLE_TEST_DAYS;
        let trace = google_like(child_seed(seed, 0), days).cpu().clone();
        let (train, test) = trace.split_at(config::CYCLE_TRAIN_DAYS * config::STEPS_PER_DAY);
        let model_seed = child_seed(seed, 1);
        let mut model: Box<dyn Forecaster> = match workload {
            Workload::CycleDeepar => Box::new(DeepAr::new(config::deepar(model_seed))),
            _ => Box::new(Tft::new(config::tft(model_seed))),
        };
        let (fit, fit_ns) = timed(|| model.fit(&train.values));
        fit.map_err(|e| format!("{} fit: {e}", model.name()))?;
        let manager = config::adaptive_manager();
        let simplex = manager.clone().with_backend(PlanningBackend::Simplex);
        let cycle = Self {
            model,
            test: test.values,
            spec: config::rolling(),
            manager,
            simplex,
            fit_s: fit_ns as f64 / 1e9,
        };
        let mut off = Tracer::new(0);
        for k in 0..cycle.windows().min(4) {
            cycle.op(k, &mut off)?;
        }
        Ok(cycle)
    }

    fn windows(&self) -> usize {
        self.spec.windows(&self.test).len()
    }

    /// One decision cycle on window `k`, a span around each layer call.
    fn op(&self, k: usize, tr: &mut Tracer) -> Result<CycleOutput, String> {
        tr.scope("op", |tr| {
            let (context, actual) = tr.scope("window", |_| self.spec.windows(&self.test).window(k));
            let forecast = tr
                .scope("forecast", |_| {
                    self.model.forecast_quantiles(context, config::HORIZON, &SCALING_LEVELS)
                })
                .map_err(|e| format!("forecast: {e}"))?;
            let plan = tr.scope("plan", |_| self.manager.plan(&forecast));
            let report = tr.scope("simulate", |_| {
                let realised = Trace::new("window", 600, actual.to_vec());
                let mut session = SimSession::new(&realised, config::sim());
                let mut policy = Replay(plan.as_slice());
                while session.step(&mut policy) {}
                session.finish(policy.name())
            });
            let scores = tr.scope("score", |_| score(&forecast, actual, &report.allocations()));
            Ok(CycleOutput { forecast, plan: plan.as_slice().to_vec(), report, scores })
        })
    }

    /// Check one op's outputs (outside the timed span) and digest them.
    fn verify(&self, out: &CycleOutput, check_simplex: bool) -> Result<u64, String> {
        let values = out.forecast.values().data();
        if !values.iter().all(|v| v.is_finite()) {
            return Err("forecast has a non-finite value".into());
        }
        if !out.forecast.is_monotone() {
            return Err("forecast quantiles cross".into());
        }
        if out.plan.len() != config::HORIZON || out.plan.iter().any(|&c| c < config::MIN_NODES) {
            return Err(format!("plan of {} steps breaks horizon or min_nodes", out.plan.len()));
        }
        if out.report.steps.len() != config::HORIZON {
            return Err(format!("simulated {} steps, not the horizon", out.report.steps.len()));
        }
        if !out.scores.iter().all(|s| s.is_finite()) {
            return Err("a score is not finite".into());
        }
        if check_simplex && self.simplex.plan(&out.forecast).as_slice() != out.plan {
            return Err("closed-form plan differs from the simplex plan".into());
        }
        let mut f = Fnv::default();
        for &v in values.iter().chain(&out.scores) {
            f.f64(v);
        }
        for &c in &out.plan {
            f.u64(u64::from(c));
        }
        for s in &out.report.steps {
            f.u64(u64::from(s.pool_nodes)).f64(s.utilization).u64(u64::from(s.violation));
        }
        Ok(f.finish())
    }

    /// Allocator traffic of one `forecast_quantiles` (traced runs only).
    fn forecast_layer(&self) -> ForecastLayer {
        let (context, _) = self.spec.windows(&self.test).window(0);
        let (_, stats) = rpas_bench::alloc::measure(|| {
            std::hint::black_box(self.model.forecast_quantiles(
                context,
                config::HORIZON,
                &SCALING_LEVELS,
            ))
        });
        ForecastLayer {
            fit_s: self.fit_s,
            allocs_per_predict: stats.allocs as f64,
            bytes_per_predict: stats.bytes as f64,
        }
    }
}

/// Run the workload: repeated set-up, then ops cycling over the decision
/// windows until the budget is spent. In a traced run the tracer is
/// switched on for every other op (the window count is odd, so each
/// window is visited both ways).
pub fn run(workload: Workload, budget: &Budget, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cycle = out.set_up(budget, || Cycle::setup(workload, budget.seed))?;
    let windows = cycle.windows();
    if windows == 0 {
        return Err("test series too short for one decision window".into());
    }

    let mut refs = References::new(windows);
    let deadline = budget.deadline_ns();
    let mut n = 0u64;
    // At least one pass over the windows, so the digest covers them all.
    while now_ns() < deadline || n < windows as u64 {
        let k = (n % windows as u64) as usize;
        tr.on = budget.traced && n % 2 == 1;
        tr.next_op();
        let t0 = now_ns();
        let result = cycle.op(k, tr);
        out.record_op(tr.on, t0, now_ns());
        let verified = result.and_then(|o| cycle.verify(&o, n < config::SIMPLEX_CHECKED_OPS));
        out.settle(&mut refs, k, "window", verified);
        n += 1;
    }
    tr.on = false;
    out.end_timed_phase()?;
    out.digest = refs.digest();
    if budget.traced {
        out.forecast = Some(cycle.forecast_layer());
    }
    Ok(out)
}
