//! Bench behind **Table II**: end-to-end execution time of one scaling
//! decision per method (forecast + plan, or reactive window scan).
//!
//! Run: `cargo bench -p rpas-bench --bench overhead`

use rpas_bench::harness::BenchGroup;
use rpas_bench::{datasets, models, ExperimentProfile};
use rpas_core::{plan_point, ReactiveAvg, ReactiveMax, RobustAutoScalingManager, ScalingStrategy};
use rpas_forecast::{Forecaster, PointForecaster, SCALING_LEVELS};
use rpas_simdb::{Observation, ScalingPolicy};
use std::hint::black_box;

fn main() {
    let p = ExperimentProfile::bench();
    let ds = datasets(&p).remove(1); // google
    let ctx: Vec<f64> = ds.test[..p.context].to_vec();

    let mut deepar = models::deepar(&p, 1);
    deepar.fit(&ds.train).expect("deepar fit");
    let mut tft = models::tft(&p, &SCALING_LEVELS, 1);
    tft.fit(&ds.train).expect("tft fit");
    let mut qb = models::qb5000(&p, 1);
    qb.fit(&ds.train).expect("qb5000 fit");
    let manager = RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau: 0.9 });

    let obs = Observation::new(ctx.len(), &ctx, 2, 60.0, 1);

    let mut group = BenchGroup::new("table2_decision_cycle");

    let mut rmax = ReactiveMax::new(6);
    group.bench("reactive_max", || black_box(rmax.decide(&obs)));

    let mut ravg = ReactiveAvg::paper_default();
    group.bench("reactive_avg", || black_box(ravg.decide(&obs)));

    group.bench("qb5000", || {
        let f = qb.forecast(&ctx, p.horizon).expect("forecast");
        let w: Vec<f64> = f.iter().map(|v| v.max(0.0)).collect();
        black_box(plan_point(&w, 60.0, 1))
    });

    group.bench("deepar", || {
        let qf = deepar.forecast_quantiles(&ctx, p.horizon, &SCALING_LEVELS).expect("forecast");
        black_box(manager.plan(&qf))
    });

    group.bench("tft", || {
        let qf = tft.forecast_quantiles(&ctx, p.horizon, &SCALING_LEVELS).expect("forecast");
        black_box(manager.plan(&qf))
    });

    group.finish();

    // Observability overhead guard: the same planning call dark (no obs),
    // with the no-op handle (instrumentation compiled in, nothing
    // listening), and with a live in-memory sink. Dark and no-op must be
    // indistinguishable — the closure-based emit API never builds events
    // when no sink listens.
    let qf = deepar.forecast_quantiles(&ctx, p.horizon, &SCALING_LEVELS).expect("forecast");
    let adaptive = ScalingStrategy::Adaptive(rpas_core::AdaptiveConfig::new(0.8, 0.95, 5.0));
    let dark = RobustAutoScalingManager::new(60.0, 1, adaptive.clone());
    let noop = RobustAutoScalingManager::new(60.0, 1, adaptive.clone())
        .with_obs(rpas_obs::Obs::noop());
    // Counting sink: pays full event-building and dispatch cost without
    // accumulating millions of events across calibrated batches.
    struct CountSink(std::sync::atomic::AtomicU64);
    impl rpas_obs::Sink for CountSink {
        fn max_level(&self) -> rpas_obs::Level {
            rpas_obs::Level::Debug
        }
        fn emit(&self, _: &rpas_obs::Event) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
    let live = RobustAutoScalingManager::new(60.0, 1, adaptive)
        .with_obs(rpas_obs::Obs::with_sink(Box::new(CountSink(0.into()))));

    let mut group = BenchGroup::new("obs_overhead_plan");
    group.bench("dark", || black_box(dark.plan(&qf)));
    group.bench("noop_obs", || black_box(noop.plan(&qf)));
    group.bench("counting_sink", || black_box(live.plan(&qf)));
    group.finish();
}
