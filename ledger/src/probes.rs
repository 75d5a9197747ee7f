//! Isolation probes: each layer's primary call, timed on its own at a
//! fixed problem size, in the traced process. A fleet tick cannot be
//! split from outside, so what happens inside it is measured here —
//! single-tenant simulator steps, bare against supervised engine, an
//! empty pool dispatch, dark against captured events, dead against live
//! telemetry. The same suite runs on every workload, so each number
//! means the same thing wherever it is read.

use crate::checkpoint::fleet_at_checkpoint_tick;
use crate::clock::{now_ns, timed};
use crate::config;
use crate::cycle::{score, Replay};
use crate::outcome::ForecastLayer;
use crate::reference::Reference;
use crate::report::Values;
use crate::stats::median;
use rpas_bench::alloc;
use rpas_core::{
    checkpoint, plan_point, uncertainty_series, FleetEngine, FleetSupervisor, PlanningBackend,
    QuantilePredictivePolicy, ReplanSchedule, ResilientManager,
};
use rpas_forecast::{Forecaster, QuantileForecast, SeasonalNaive, SCALING_LEVELS};
use rpas_nn::{Dense, GruCell, MultiHeadAttention};
use rpas_obs::{Event, JsonlSink, Level, MemorySink, Obs};
use rpas_par::WorkerPool;
use rpas_simdb::{FaultPlan, Observation, ScalingPolicy, SimSession};
use rpas_telemetry::{RatioSeries, SloReport, Telemetry};
use rpas_traces::{alibaba_like, google_like, Trace};
use rpas_tsmath::rng::{self, child_seed};
use rpas_tsmath::Matrix;
use std::hint::black_box;

/// Tenants of the dark fleet the fleet probes run on.
const PROBE_TENANTS: usize = 512;
/// Repetitions of each whole-fleet probe (the median is reported).
const FLEET_REPS: usize = 3;

/// Median nanoseconds per call of `f`: batches sized to ~200 µs so the
/// clock reads vanish, repeated until `budget_ns` is spent.
fn per_call_ns(budget_ns: u64, mut f: impl FnMut()) -> f64 {
    let mut batch = 1u64;
    while batch < 1 << 22 && timed(|| (0..batch).for_each(|_| f())).1 < 200_000 {
        batch *= 2;
    }
    let deadline = now_ns() + budget_ns;
    let mut samples = Vec::new();
    while samples.len() < 5 || now_ns() < deadline {
        let ((), ns) = timed(|| (0..batch).for_each(|_| f()));
        samples.push(ns as f64 / batch as f64);
    }
    median(&samples)
}

/// `holds steady`: after the first transition every tick is a no-change
/// decision, so what the allocator sees belongs to the supervisor.
struct Hold;

impl ScalingPolicy for Hold {
    fn name(&self) -> &'static str {
        "hold"
    }

    fn decide(&mut self, obs: &Observation<'_>) -> u32 {
        obs.min_nodes
    }
}

/// Where probe results go. Every result also gives the host-slowdown
/// reference a chance to sample, so `host.slowdown` covers the probes.
pub struct Probed<'a> {
    /// Metric values by name.
    pub values: &'a mut Values,
    /// The run's host-slowdown reference.
    pub reference: &'a mut Reference,
    /// Time budget of one micro-probe.
    pub unit_ns: u64,
}

impl Probed<'_> {
    fn insert(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
        self.reference.sample_if_due();
    }

    /// Time `f` per call, record it as `name` in units of `ns_per_unit`
    /// nanoseconds, and return what was recorded.
    fn time(&mut self, name: &'static str, ns_per_unit: f64, f: impl FnMut()) -> f64 {
        let value = per_call_ns(self.unit_ns, f) / ns_per_unit;
        self.insert(name, value);
        value
    }

    /// Median of the samples `round` returns, rounds repeated until the
    /// unit budget is spent (for probes that set up state per round).
    fn repeat(&self, mut round: impl FnMut() -> Vec<f64>) -> f64 {
        let deadline = now_ns() + self.unit_ns;
        let mut samples = Vec::new();
        while samples.len() < 5 || now_ns() < deadline {
            samples.extend(round());
        }
        median(&samples)
    }
}

/// The fleets' seasonal-naive forecaster as a layer: what `forecast.*`
/// reads on the workloads that have no neural forecaster of their own.
pub struct NaiveLayer {
    /// Median `forecast_quantiles` time (context 144, horizon 72).
    pub predict_us: f64,
    /// Fit time and allocator traffic.
    pub layer: ForecastLayer,
}

/// Whether the default schedule replans at supervised tick `t`.
fn is_replan_tick(t: usize) -> bool {
    t >= config::STEPS_PER_DAY && (t - config::STEPS_PER_DAY).is_multiple_of(config::HORIZON)
}

/// The 4-field event every emit probe sends, under a registered name.
fn emit(obs: &Obs) {
    obs.info("bench", "measurement", |e| {
        e.field("tenant", "t0000")
            .field("step", 7u64)
            .field("utilization", 0.62)
            .field("violation", false);
    });
}

/// What the micro-probes share: a 4-day trace, the fleets' fitted
/// forecaster and one of its forecasts.
struct Fixture {
    series: Trace,
    naive: SeasonalNaive,
    forecast: QuantileForecast,
}

/// Run every probe; `out_dir` is where the JSONL emit probe may write its
/// scratch file.
pub fn run(seed: u64, out_dir: &std::path::Path, v: &mut Probed<'_>) -> Result<NaiveLayer, String> {
    v.time("traces.generate_ms", 1e6, || drop(black_box(google_like(seed, 14))));
    let series = alibaba_like(child_seed(seed, 101), 4).cpu().clone();
    let (naive_layer, fx) = forecast_probes(series, v)?;
    trace_and_kernel_probes(seed, &fx, v);
    planner_probes(&fx, v);
    simdb_probes(seed, &fx, v);
    resilient_probe(&fx, v);
    obs_and_telemetry_probes(out_dir, v)?;
    fleet_probes(seed, v);
    observed_probes(seed, v)?;
    Ok(naive_layer)
}

/// The fleets' seasonal-naive forecaster at its fleet dimensions: fitted
/// on the first half of the trace, forecasting from one season of context.
fn forecast_probes(series: Trace, v: &mut Probed<'_>) -> Result<(NaiveLayer, Fixture), String> {
    let (period, half) = (config::STEPS_PER_DAY, series.len() / 2);
    let mut naive = SeasonalNaive::new(period);
    let (fit, fit_ns) = timed(|| naive.fit(&series.values[..half]));
    fit.map_err(|e| format!("naive fit: {e}"))?;
    let predict = || {
        naive.forecast_quantiles(
            &series.values[half - period..half],
            config::HORIZON,
            &SCALING_LEVELS,
        )
    };
    let forecast = predict().map_err(|e| format!("naive forecast: {e}"))?;
    let predict_us = v.time("forecast.naive.predict_us", 1e3, || drop(black_box(predict())));
    let (_, allocs) = alloc::measure(|| black_box(predict()));
    let layer = ForecastLayer {
        fit_s: fit_ns as f64 / 1e9,
        allocs_per_predict: allocs.allocs as f64,
        bytes_per_predict: allocs.bytes as f64,
    };
    Ok((NaiveLayer { predict_us, layer }, Fixture { series, naive, forecast }))
}

/// One rolling window, and the nn / tsmath kernels at the neural
/// forecasters' dimensions.
fn trace_and_kernel_probes(seed: u64, fx: &Fixture, v: &mut Probed<'_>) {
    let spec = config::rolling();
    let windows = spec.windows(&fx.series.values).len();
    let mut k = 0;
    v.time("traces.window_ns", 1.0, || {
        k = (k + 1) % windows;
        black_box(spec.windows(&fx.series.values).window(k));
    });

    let mut r = rng::seeded(child_seed(seed, 100));
    let mut uniform = |n: usize| (0..n).map(|_| rng::uniform(&mut r) - 0.5).collect::<Vec<f64>>();
    let hidden = config::deepar(0).hidden;
    let tft = config::tft(0);
    let (h, x) = (uniform(hidden), uniform(tft.context * tft.d_model));
    let m = Matrix::from_vec(hidden, hidden, uniform(hidden * hidden));
    let x = Matrix::from_vec(tft.context, tft.d_model, x);
    let gru = GruCell::new(1, hidden, &mut r);
    let mut attention = MultiHeadAttention::new(tft.d_model, tft.heads, true, &mut r);
    let dense = Dense::new(hidden, hidden, &mut r);
    v.time("nn.gru_apply_ns", 1.0, || drop(black_box(gru.apply(&[0.3], &h))));
    v.time("nn.attention_forward_us", 1e3, || drop(black_box(attention.forward(&x))));
    v.time("nn.linear_apply_ns", 1.0, || drop(black_box(dense.apply(&h))));
    v.time("tsmath.matvec_ns", 1.0, || drop(black_box(m.matvec(&h))));
}

/// Planner strategies, the simplex backend and the scoring of one window.
fn planner_probes(fx: &Fixture, v: &mut Probed<'_>) {
    let basic = config::basic_manager();
    let adaptive = config::adaptive_manager();
    let simplex = config::adaptive_manager().with_backend(PlanningBackend::Simplex);
    v.time("plan.basic_ns", 1.0, || drop(black_box(basic.plan(&fx.forecast))));
    v.time("plan.adaptive_ns", 1.0, || drop(black_box(adaptive.plan(&fx.forecast))));
    v.time("plan.uncertainty_ns", 1.0, || drop(black_box(uncertainty_series(&fx.forecast))));
    v.time("lp.plan_simplex_us", 1e3, || drop(black_box(simplex.plan(&fx.forecast))));
    let half = fx.series.len() / 2;
    let actual = &fx.series.values[half..half + config::HORIZON];
    let allocations = adaptive.plan(&fx.forecast);
    v.time("metrics.score_us", 1e3, || {
        drop(black_box(score(&fx.forecast, actual, allocations.as_slice())))
    });
}

/// One tenant's simulator steps over the whole trace, dark and fully
/// observed (captured events, live telemetry, light faults).
fn simdb_probes(seed: u64, fx: &Fixture, v: &mut Probed<'_>) {
    let plan = plan_point(&fx.series.values, config::THETA, config::MIN_NODES);
    let steps = fx.series.len();
    for (metric, observed) in [("simdb.step_ns", false), ("simdb.step_observed_ns", true)] {
        let ns = v.repeat(|| {
            let mut session = SimSession::new(&fx.series, config::sim());
            if observed {
                let faults = FaultPlan::build(config::light_faults(), child_seed(seed, 102), steps);
                session = session
                    .with_obs(Obs::with_sink(Box::new(MemorySink::new())))
                    .with_telemetry(&Telemetry::live(), &[("tenant", "t0000")])
                    .with_faults(faults);
            }
            let mut policy = Replay(plan.as_slice());
            let ((), ns) = timed(|| while session.step(&mut policy) {});
            vec![ns as f64 / steps as f64]
        });
        v.insert(metric, ns);
    }
}

/// `ResilientManager::decide` on the 71 ticks between two replans.
fn resilient_probe(fx: &Fixture, v: &mut Probed<'_>) {
    let schedule = ReplanSchedule { context: config::STEPS_PER_DAY, horizon: config::HORIZON };
    let history = &fx.series.values;
    let ns = v.repeat(|| {
        let policy = QuantilePredictivePolicy::new(
            "predictive",
            fx.naive.clone(),
            config::basic_manager(),
            schedule,
        );
        let mut ladder = ResilientManager::with_config(policy, config::resilience());
        let mut nodes = config::MIN_NODES;
        let mut decide = |t: usize| {
            let seen = Observation::new(t, &history[..t], nodes, config::THETA, config::MIN_NODES);
            nodes = ladder.decide(&seen);
        };
        let (mut samples, mut t) = (Vec::new(), 0);
        while t < history.len() {
            if t < config::STEPS_PER_DAY || is_replan_tick(t) {
                decide(t);
                t += 1;
                continue;
            }
            let end = (t + config::HORIZON - 1).min(history.len());
            let ((), ns) = timed(|| (t..end).for_each(&mut decide));
            samples.push(ns as f64 / (end - t) as f64);
            t = end;
        }
        samples
    });
    v.insert("resilient.decide_ns", ns);
}

/// One event into nothing, into memory and into a JSONL file; its
/// encoding; live telemetry handles.
fn obs_and_telemetry_probes(out_dir: &std::path::Path, v: &mut Probed<'_>) -> Result<(), String> {
    let dark = Obs::noop();
    v.time("obs.emit_dark_ns", 1.0, || emit(black_box(&dark)));
    let memory = MemorySink::new();
    let captured = Obs::with_sink(Box::new(memory.clone()));
    // Batches of 1000, drained (untimed) in between so the sink stays small.
    let ns = v.repeat(|| {
        let ((), ns) = timed(|| (0..1000).for_each(|_| emit(&captured)));
        drop(memory.drain());
        vec![ns as f64 / 1000.0]
    });
    v.insert("obs.emit_memory_ns", ns);
    let scratch = out_dir.join("ledger-emit-probe.jsonl");
    let sink = JsonlSink::create(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let file = Obs::with_sink(Box::new(sink));
    v.time("obs.emit_jsonl_ns", 1.0, || emit(&file));
    drop(file);
    let _ = std::fs::remove_file(&scratch);
    let mut event = Event::new(Level::Info, "bench", "measurement");
    event
        .field("tenant", "t0000")
        .field("step", 7u64)
        .field("utilization", 0.62)
        .field("violation", false);
    v.time("obs.encode_ns_per_event", 1.0, || drop(black_box(event.to_json())));

    let tel = Telemetry::live();
    let counter = tel.counter("ledger.probe_steps", &[("tenant", "t0000")]);
    v.time("telemetry.counter_inc_ns", 1.0, || counter.inc(1));
    let hist =
        tel.histogram("ledger.probe_ratio", &[("tenant", "t0000")], &[0.25, 0.5, 0.75, 1.0, 1.5]);
    v.time("telemetry.hist_record_ns", 1.0, || hist.record(0.62));
    Ok(())
}

/// Whole-fleet probes on a dark fleet: build, bare and supervised tick
/// loops, finish, steady-state allocations, and the 2-vs-1-thread ratio.
fn fleet_probes(seed: u64, v: &mut Probed<'_>) {
    let cfg = config::dark_fleet(PROBE_TENANTS, child_seed(seed, 103));
    let noop = Telemetry::noop();
    let build = || FleetEngine::with_telemetry(&cfg, &noop);
    let supervised = |engine| FleetSupervisor::wrap_with(engine, config::supervisor(), &noop);

    let (mut build_ms, mut bare_s) = (Vec::new(), Vec::new());
    for _ in 0..FLEET_REPS {
        let (mut engine, ns) = timed(build);
        build_ms.push(ns as f64 / 1e6);
        let ((), ns) = timed(|| while engine.tick() > 0 {});
        bare_s.push(ns as f64 / 1e9);
        black_box(engine.finish());
    }
    v.insert("fleet.build_ms", median(&build_ms));

    // Supervised loop, tick by tick. Returns (loop seconds, finish
    // seconds, per-tick microseconds).
    let supervised_run = || {
        let mut sup = supervised(build());
        let mut ticks_us = Vec::with_capacity(sup.total_ticks() as usize);
        let t_start = now_ns();
        while !sup.is_done() {
            let (_, ns) = timed(|| sup.tick());
            ticks_us.push(ns as f64 / 1e3);
        }
        let loop_s = (now_ns() - t_start) as f64 / 1e9;
        let (report, ns) = timed(|| sup.finish());
        black_box(report);
        (loop_s, ns as f64 / 1e9, ticks_us)
    };
    let (mut loop_s, mut finish_s, mut all_ticks, mut replan_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut replan_total, mut ticks_total) = (0.0, 0.0);
    for _ in 0..FLEET_REPS {
        let (l, f, ticks) = supervised_run();
        loop_s.push(l);
        finish_s.push(f);
        for (t, &us) in ticks.iter().enumerate() {
            ticks_total += us;
            if is_replan_tick(t) {
                replan_total += us;
                replan_us.push(us);
            }
        }
        all_ticks.extend(ticks);
    }
    let (loop_1, finish) = (median(&loop_s), median(&finish_s));
    v.insert("fleet.tick_p50_us.t1", median(&all_ticks));
    v.insert(
        "fleet.replan_tick_ms",
        replan_us.iter().sum::<f64>() / replan_us.len().max(1) as f64 / 1e3,
    );
    v.insert("fleet.share.replan_ticks", replan_total / ticks_total);
    v.insert("fleet.finish_ms", finish * 1e3);
    v.insert("fleet.share.finish", finish / (loop_1 + finish));
    v.insert("supervisor.overhead_frac", loop_1 / median(&bare_s) - 1.0);

    // Steady-state allocations of the supervision layer alone.
    let mut engine = build();
    for t in 0..cfg.tenants {
        engine.set_policy(t, Box::new(Hold));
    }
    let mut sup = supervised(engine);
    for _ in 0..16 {
        sup.tick();
    }
    let steady_ticks = sup.total_ticks() - sup.ticks_done();
    let ((), stats) = alloc::measure(|| {
        while !sup.is_done() {
            sup.tick();
        }
    });
    black_box(sup.finish());
    v.insert("supervisor.steady_allocs_per_tick", stats.allocs as f64 / steady_ticks.max(1) as f64);

    // Two threads against one. A virtualised second core answers
    // promptly only after about a second of sustained fan-outs (the
    // guest's halt-polling window has to grow), so it is warmed first.
    // 0 marks a single-core host, where the ratio would be scheduler noise.
    let speedup = if config::cross_check_threads() >= 2 {
        std::env::set_var("RPAS_THREADS", "2");
        let warm_until = now_ns() + 1_000_000_000;
        while now_ns() < warm_until {
            black_box(supervised_run());
        }
        let loop_2: Vec<f64> = (0..FLEET_REPS).map(|_| supervised_run().0).collect();
        std::env::set_var("RPAS_THREADS", config::THREADS.to_string());
        loop_1 / median(&loop_2)
    } else {
        0.0
    };
    v.insert("par.speedup_2v1", speedup);

    // An empty fan-out over 1024 items, while the second core is still warm.
    let pool = WorkerPool::new(config::cross_check_threads());
    let mut items = vec![0u8; 1024];
    v.time("par.dispatch_us", 1e3, || {
        pool.for_each_mut(&mut items, |_, item| *item = black_box(1))
    });
}

/// Probes on the 64-tenant observed fleet stopped at the checkpoint
/// tick: save and load, the JSON parser over the checkpoint text, then
/// the end-of-run exposition, event count and SLO evaluation.
fn observed_probes(seed: u64, v: &mut Probed<'_>) -> Result<(), String> {
    let mut fleet = fleet_at_checkpoint_tick(child_seed(seed, 104));
    let save = |f: &crate::fleet::Fleet| checkpoint::save(&f.sup, &f.cfg, &f.tel);
    let text = save(&fleet)?;
    let mb = text.len() as f64 / 1e6;
    let (mut save_s, mut load_s, mut parse_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..FLEET_REPS {
        let (saved, ns) = timed(|| save(&fleet));
        save_s.push(ns as f64 / 1e9);
        let tel = Telemetry::live();
        let (loaded, ns) = timed(|| checkpoint::load(&saved?, &tel, Obs::noop()));
        load_s.push(ns as f64 / 1e9);
        loaded?;
        let (parsed, ns) =
            timed(|| text.lines().try_for_each(|l| rpas_obs::json::parse(l).map(drop)));
        parse_s.push(ns as f64 / 1e9);
        parsed?;
    }
    let (_, save_allocs) = alloc::measure(|| black_box(save(&fleet)));
    let tel = Telemetry::live();
    let (_, load_allocs) =
        alloc::measure(|| black_box(checkpoint::load(&text, &tel, Obs::noop()).map(drop)));
    v.insert("checkpoint.save_ms", median(&save_s) * 1e3);
    v.insert("checkpoint.load_ms", median(&load_s) * 1e3);
    v.insert("checkpoint.bytes", text.len() as f64);
    v.insert("checkpoint.save_mb_per_s", mb / median(&save_s));
    v.insert("checkpoint.load_mb_per_s", mb / median(&load_s));
    v.insert("checkpoint.allocs_per_save", save_allocs.allocs as f64);
    v.insert("checkpoint.allocs_per_load", load_allocs.allocs as f64);
    v.insert("obs.json_parse_mb_per_s", mb / median(&parse_s));

    fleet.sup.run_to_completion();
    let tenant_ticks = (fleet.cfg.tenants * fleet.cfg.days * config::STEPS_PER_DAY) as f64;
    let snapshot_ms: Vec<f64> = (0..FLEET_REPS)
        .map(|_| timed(|| black_box(fleet.tel.snapshot().exposition())).1 as f64 / 1e6)
        .collect();
    v.insert("telemetry.snapshot_ms", median(&snapshot_ms));
    let (report, _) = fleet.finish();
    v.insert("obs.events_per_tenant_tick", report.trace_lines.len() as f64 / tenant_ticks);

    // The SLO engine at fleet-end size: one seeded violation series per
    // tenant, ~2 % bad ticks.
    let mut r = rng::seeded(child_seed(seed, 105));
    let subjects: Vec<(String, RatioSeries)> = report
        .tenants
        .iter()
        .map(|t| {
            let flags: Vec<bool> = (0..t.qos.steps).map(|_| rng::uniform(&mut r) < 0.02).collect();
            (t.id.to_string(), RatioSeries::from_bools(&flags))
        })
        .collect();
    let spec = config::violation_rate_slo();
    let slo_ms: Vec<f64> = (0..FLEET_REPS)
        .map(|_| {
            timed(|| black_box(SloReport::evaluate(&spec, &subjects, &Obs::noop()))).1 as f64 / 1e6
        })
        .collect();
    v.insert("telemetry.slo_eval_ms", median(&slo_ms));
    Ok(())
}
