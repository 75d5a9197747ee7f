//! Capacity planning deep-dive: one 12-hour decision horizon, four
//! strategies, with the per-step reasoning printed — including the
//! uncertainty metric `U` that drives the adaptive strategy, and the LP
//! cross-check of the closed-form planner.
//!
//! Run: `cargo run --release --example capacity_planning`

use rpas::core::{
    uncertainty_series, AdaptiveConfig, PlanningBackend, RobustAutoScalingManager,
    ScalingStrategy, StaircaseLevel,
};
use rpas::forecast::{Forecaster, SeasonalNaive, SCALING_LEVELS};
use rpas::traces::{google_like, STEPS_PER_DAY};

fn main() {
    let theta = 60.0;
    let trace = google_like(5, 14).cpu().clone();
    let (train, test) = trace.train_test_split(0.8).expect("0.8 is a fraction in [0, 1]");

    let mut fc = SeasonalNaive::new(STEPS_PER_DAY);
    fc.fit(&train.values).expect("fit");
    let context = &test.values[..STEPS_PER_DAY];
    let horizon = 24;
    let qf = fc.forecast_quantiles(context, horizon, &SCALING_LEVELS).expect("forecast");
    let u = uncertainty_series(&qf);

    // Closed form and simplex must agree (the paper's "standard LP solver").
    let robust = RobustAutoScalingManager::new(theta, 1, ScalingStrategy::Fixed { tau: 0.9 });
    let via_lp = robust.clone().with_backend(PlanningBackend::Simplex);
    assert_eq!(robust.plan(&qf), via_lp.plan(&qf), "closed-form and simplex plans must agree");

    let strategies: Vec<(&str, RobustAutoScalingManager)> = vec![
        ("fixed τ=0.8", RobustAutoScalingManager::new(theta, 1, ScalingStrategy::Fixed { tau: 0.8 })),
        ("fixed τ=0.95", RobustAutoScalingManager::new(theta, 1, ScalingStrategy::Fixed { tau: 0.95 })),
        (
            "adaptive (0.8/0.95)",
            RobustAutoScalingManager::new(
                theta,
                1,
                ScalingStrategy::Adaptive(AdaptiveConfig::new(0.8, 0.95, median(&u))),
            ),
        ),
        (
            "staircase ×3",
            RobustAutoScalingManager::new(
                theta,
                1,
                ScalingStrategy::Staircase(vec![
                    StaircaseLevel { min_uncertainty: 0.0, tau: 0.7 },
                    StaircaseLevel { min_uncertainty: median(&u), tau: 0.9 },
                    StaircaseLevel { min_uncertainty: 2.0 * median(&u), tau: 0.99 },
                ]),
            ),
        ),
    ];

    println!("step  median   q0.9   q0.99      U   | fixed.8 fixed.95 adaptive staircase");
    let plans: Vec<_> = strategies.iter().map(|(_, m)| m.plan(&qf)).collect();
    #[expect(clippy::needless_range_loop, reason = "h indexes the forecast and four plans alike")]
    for h in 0..horizon {
        println!(
            "{:>4} {:>8.1} {:>7.1} {:>7.1} {:>7.2} | {:>7} {:>8} {:>8} {:>9}",
            h,
            qf.at(h, 0.5),
            qf.at(h, 0.9),
            qf.at(h, 0.99),
            u[h],
            plans[0].at(h),
            plans[1].at(h),
            plans[2].at(h),
            plans[3].at(h),
        );
    }
    println!("\ntotals (node-intervals):");
    for ((name, _), plan) in strategies.iter().zip(&plans) {
        println!("  {:<20} {}", name, plan.total_nodes());
    }
    println!(
        "\nThe adaptive plan follows τ=0.8 on confident steps and τ=0.95 on uncertain \
         ones, landing between the two fixed plans; the staircase refines this further."
    );
}

fn median(xs: &[f64]) -> f64 {
    rpas::tsmath::stats::median(xs)
}
