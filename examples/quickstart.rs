//! Quickstart: the paper's full workflow (Fig. 2) in ~60 lines.
//!
//! 1. Generate an Alibaba-like CPU workload trace.
//! 2. Train a probabilistic workload forecaster (seasonal-naive here so the
//!    example runs in a second; swap in `Tft`/`DeepAr` for the real thing).
//! 3. Produce quantile forecasts for the next 12 hours.
//! 4. Turn them into a robust capacity plan at τ = 0.9, and an adaptive
//!    plan that relaxes to τ = 0.8 when the forecast is confident.
//!
//! Run: `cargo run --release --example quickstart`

use rpas::core::{
    AdaptiveConfig, RobustAutoScalingManager, ScalingStrategy,
};
use rpas::forecast::{Forecaster, SeasonalNaive, SCALING_LEVELS};
use rpas::traces::{alibaba_like, STEPS_PER_DAY};

fn main() {
    // ① Workload history (synthetic stand-in for the Alibaba cluster trace).
    let trace = alibaba_like(7, 14);
    let cpu = trace.cpu();
    let (train, test) = cpu.train_test_split(0.8).expect("0.8 is a fraction in [0, 1]");
    println!("trace: {} samples at {}s interval", cpu.len(), cpu.interval_secs);

    // ② Probabilistic workload forecaster.
    let mut forecaster = SeasonalNaive::new(STEPS_PER_DAY);
    forecaster.fit(&train.values).expect("fit");

    // ③ Quantile forecasts for the next 72 steps (12 hours).
    let horizon = 72;
    let context = &test.values[..STEPS_PER_DAY];
    let qf = forecaster
        .forecast_quantiles(context, horizon, &SCALING_LEVELS)
        .expect("forecast");
    println!(
        "step 0 forecast: median={:.1}, q90={:.1}, q99={:.1}",
        qf.at(0, 0.5),
        qf.at(0, 0.9),
        qf.at(0, 0.99)
    );

    // ④ Robust auto-scaling manager: θ = 60 CPU-units per node.
    let robust = RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau: 0.9 });
    let plan = robust.plan(&qf);
    println!(
        "robust τ=0.9 plan: first 12 steps {:?}, total node-intervals {}",
        &plan.as_slice()[..12],
        plan.total_nodes()
    );

    // Adaptive variant (Algorithm 1): aggressive τ=0.8 when confident.
    let adaptive = RobustAutoScalingManager::new(
        60.0,
        1,
        ScalingStrategy::Adaptive(AdaptiveConfig::new(0.8, 0.95, 8.0)),
    );
    let aplan = adaptive.plan(&qf);
    println!(
        "adaptive plan:     first 12 steps {:?}, total node-intervals {}",
        &aplan.as_slice()[..12],
        aplan.total_nodes()
    );
    println!(
        "adaptive saves {} node-intervals vs always-conservative τ=0.95",
        RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau: 0.95 })
            .plan(&qf)
            .total_nodes() as i64
            - aplan.total_nodes() as i64
    );
}
