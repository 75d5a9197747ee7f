//! **Tables II & III** — computation overhead.
//!
//! Table II compares the end-to-end execution time of one scaling decision
//! cycle per method (Reactive-Max, Reactive-Avg, QB5000, DeepAR, TFT).
//! Table III breaks our method down into workload forecasting (DeepAR vs
//! TFT inference) and auto-scaling optimization (basic vs adaptive).
//!
//! Wall-clock medians over repeated invocations; the Criterion benches
//! (`cargo bench -p rpas-bench`) measure the same paths with full rigour.
//!
//! Run: `cargo run --release -p rpas-bench --bin table2_3`

#![expect(clippy::disallowed_types, reason = "a timing program: Instant is what it measures with")]

use rpas_bench::output::f;
use rpas_bench::{datasets, models, write_csv, ExperimentProfile, Table};
use rpas_core::{
    AdaptiveConfig, ReactiveAvg, ReactiveMax, RobustAutoScalingManager, ScalingStrategy,
};
use rpas_forecast::{Forecaster, PointForecaster, SCALING_LEVELS};
use rpas_simdb::{Observation, ScalingPolicy};
use std::time::Instant;

const THETA: f64 = 60.0;

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn time_ms(reps: usize, mut work: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        work();
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median_ms(samples)
}

fn main() {
    let p = ExperimentProfile::from_env();
    println!("Tables II & III reproduction — profile {:?}", p.profile);
    let ds = &datasets(&p)[1]; // Google trace (burstier; arbitrary for timing)
    let ctx = &ds.test[..p.context];
    let history: Vec<f64> = ds.test[..p.context].to_vec();
    let reps = 15;

    // Fitted models.
    let mut deepar = models::deepar(&p, 1);
    deepar.fit(&ds.train).expect("deepar fit");
    let mut tft = models::tft(&p, &SCALING_LEVELS, 1);
    tft.fit(&ds.train).expect("tft fit");
    let mut qb = models::qb5000(&p, 1);
    qb.fit(&ds.train).expect("qb5000 fit");

    let basic = RobustAutoScalingManager::new(THETA, 1, ScalingStrategy::Fixed { tau: 0.9 });
    let adaptive = RobustAutoScalingManager::new(
        THETA,
        1,
        ScalingStrategy::Adaptive(AdaptiveConfig::new(0.8, 0.95, 1.0)),
    );

    // --- Table II: end-to-end decision cycle.
    let obs = Observation::new(history.len(), &history, 2, THETA, 1);
    let mut rmax = ReactiveMax::new(6);
    let mut ravg = ReactiveAvg::paper_default();

    let t_rmax = time_ms(reps, || {
        std::hint::black_box(rmax.decide(&obs));
    });
    let t_ravg = time_ms(reps, || {
        std::hint::black_box(ravg.decide(&obs));
    });
    let t_qb = time_ms(reps, || {
        let fcst = qb.forecast(ctx, p.horizon).expect("forecast");
        let clamped: Vec<f64> = fcst.iter().map(|w| w.max(0.0)).collect();
        std::hint::black_box(rpas_core::plan_point(&clamped, THETA, 1));
    });
    let t_deepar = time_ms(reps, || {
        let qf = deepar.forecast_quantiles(ctx, p.horizon, &SCALING_LEVELS).expect("forecast");
        std::hint::black_box(basic.plan(&qf));
    });
    let t_tft = time_ms(reps, || {
        let qf = tft.forecast_quantiles(ctx, p.horizon, &SCALING_LEVELS).expect("forecast");
        std::hint::black_box(basic.plan(&qf));
    });

    let mut t2 = Table::new(["method", "execution time (ms)"]);
    for (name, ms) in [
        ("Reactive-Max", t_rmax),
        ("Reactive-Average", t_ravg),
        ("Hybrid (QB5000)", t_qb),
        ("DeepAR", t_deepar),
        ("TFT", t_tft),
    ] {
        t2.row(vec![name.to_string(), f(ms)]);
    }
    t2.print("Table II — computation overhead comparison");
    write_csv(
        "table2.csv",
        &[("reactive_max", &[t_rmax][..]), ("reactive_avg", &[t_ravg][..]), ("qb5000", &[t_qb][..]), ("deepar", &[t_deepar][..]), ("tft", &[t_tft][..])],
    );

    // --- Table III: breakdown (forecasting vs optimization).
    let t_fc_deepar = time_ms(reps, || {
        std::hint::black_box(
            deepar.forecast_quantiles(ctx, p.horizon, &SCALING_LEVELS).expect("forecast"),
        );
    });
    let t_fc_tft = time_ms(reps, || {
        std::hint::black_box(
            tft.forecast_quantiles(ctx, p.horizon, &SCALING_LEVELS).expect("forecast"),
        );
    });
    let qf = tft.forecast_quantiles(ctx, p.horizon, &SCALING_LEVELS).expect("forecast");
    let opt_reps = 2000;
    let t_opt_basic = time_ms(reps, || {
        for _ in 0..opt_reps {
            std::hint::black_box(basic.plan(&qf));
        }
    }) / opt_reps as f64;
    let t_opt_adaptive = time_ms(reps, || {
        for _ in 0..opt_reps {
            std::hint::black_box(adaptive.plan(&qf));
        }
    }) / opt_reps as f64;

    let mut t3 = Table::new(["component", "variant", "time (ms)"]);
    t3.row(vec!["forecasting".into(), "DeepAR".into(), f(t_fc_deepar)]);
    t3.row(vec!["forecasting".into(), "TFT".into(), f(t_fc_tft)]);
    t3.row(vec!["optimization".into(), "Basic".into(), format!("{t_opt_basic:.6}")]);
    t3.row(vec!["optimization".into(), "Adaptive".into(), format!("{t_opt_adaptive:.6}")]);
    t3.print("Table III — computation overhead breakdown");
    write_csv(
        "table3.csv",
        &[
            ("deepar_forecast_ms", &[t_fc_deepar][..]),
            ("tft_forecast_ms", &[t_fc_tft][..]),
            ("basic_opt_ms", &[t_opt_basic][..]),
            ("adaptive_opt_ms", &[t_opt_adaptive][..]),
        ],
    );

    println!(
        "\nShape check vs paper: DeepAR forecasting ≫ TFT forecasting (sampling cost), \
         optimization cost negligible and near-identical between basic and adaptive."
    );
}
