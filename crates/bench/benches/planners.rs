//! Bench behind **Table III**'s optimization column and the DESIGN.md
//! closed-form-vs-simplex ablation: cost of solving the auto-scaling
//! optimization per decision horizon.
//!
//! Run: `cargo bench -p rpas-bench --bench planners`

use rpas_bench::harness::BenchGroup;
use rpas_core::{
    plan_adaptive, plan_robust, plan_robust_lp, plan_staircase, AdaptiveConfig, StaircaseLevel,
};
use rpas_forecast::QuantileForecast;
use rpas_tsmath::rng;
use std::hint::black_box;

/// Synthetic quantile forecast with realistic spread, `horizon × 7 levels`.
fn synthetic_forecast(horizon: usize, seed: u64) -> QuantileForecast {
    let mut r = rng::seeded(seed);
    QuantileForecast::gaussian(&rpas_forecast::SCALING_LEVELS, horizon, |h| {
        let base = 100.0 + 30.0 * (h as f64 / 12.0).sin() + rng::standard_normal(&mut r) * 5.0;
        (base, 10.0 + 5.0 * rng::uniform_open(&mut r))
    })
}

fn main() {
    let mut group = BenchGroup::new("table3_optimization");
    for &horizon in &[12usize, 72, 288] {
        let qf = synthetic_forecast(horizon, 42);
        group.bench(&format!("closed_form_fixed/{horizon}"), || {
            black_box(plan_robust(&qf, 0.9, 60.0, 1))
        });
        group.bench(&format!("simplex_fixed/{horizon}"), || {
            black_box(plan_robust_lp(&qf, 0.9, 60.0, 1))
        });
        let cfg = AdaptiveConfig::new(0.8, 0.95, 10.0);
        group.bench(&format!("adaptive/{horizon}"), || {
            black_box(plan_adaptive(&qf, cfg, 60.0, 1))
        });
        let ladder = [
            StaircaseLevel { min_uncertainty: 0.0, tau: 0.6 },
            StaircaseLevel { min_uncertainty: 5.0, tau: 0.8 },
            StaircaseLevel { min_uncertainty: 10.0, tau: 0.9 },
            StaircaseLevel { min_uncertainty: 20.0, tau: 0.95 },
        ];
        group.bench(&format!("staircase/{horizon}"), || {
            black_box(plan_staircase(&qf, &ladder, 60.0, 1))
        });
    }
    group.finish();
}
