//! **Ablation (DESIGN.md §5)** — the staircase extension: does a
//! finer-grained ladder of (uncertainty → τ) rungs improve the
//! robustness/efficiency frontier over Algorithm 1's two levels and the
//! fixed-τ baselines?
//!
//! Run: `cargo run --release -p rpas-bench --bin ablation_staircase`

use rpas_bench::output::f;
use rpas_bench::{datasets, models, write_csv, ExperimentProfile, Table};
use rpas_core::rolling::{quantile_windows, RollingSpec};
use rpas_core::{
    evaluate_plans_precomputed, uncertainty_series, AdaptiveConfig, RobustAutoScalingManager,
    ScalingStrategy, StaircaseLevel,
};
use rpas_forecast::{Forecaster, SCALING_LEVELS};

const THETA: f64 = 60.0;

fn main() {
    let p = ExperimentProfile::from_env();
    println!("Staircase ablation — profile {:?}, θ={THETA}", p.profile);
    let ds = &datasets(&p)[1]; // Google trace

    let mut deepar = models::deepar(&p, 1);
    deepar.fit(&ds.train).expect("deepar fit");

    // Forecast every test window once: the uncertainty distribution for
    // the rungs and every strategy row reuse them.
    let spec = RollingSpec::new(p.context, p.horizon);
    let windows = quantile_windows(&deepar, &ds.test, spec, &SCALING_LEVELS, &rpas_obs::Obs::noop());
    let mut us = Vec::new();
    for (qf, _) in &windows {
        us.extend(uncertainty_series(qf));
    }
    let q = |x: f64| rpas_tsmath::stats::quantile(&us, x);

    let strategies: Vec<(&str, ScalingStrategy)> = vec![
        ("fixed-0.8", ScalingStrategy::Fixed { tau: 0.8 }),
        ("fixed-0.95", ScalingStrategy::Fixed { tau: 0.95 }),
        (
            "adaptive-2 (0.8/0.95)",
            ScalingStrategy::Adaptive(AdaptiveConfig::new(0.8, 0.95, q(0.5))),
        ),
        (
            "staircase-3",
            ScalingStrategy::Staircase(vec![
                StaircaseLevel { min_uncertainty: 0.0, tau: 0.8 },
                StaircaseLevel { min_uncertainty: q(0.33), tau: 0.9 },
                StaircaseLevel { min_uncertainty: q(0.66), tau: 0.95 },
            ]),
        ),
        (
            "staircase-5",
            ScalingStrategy::Staircase(vec![
                StaircaseLevel { min_uncertainty: 0.0, tau: 0.7 },
                StaircaseLevel { min_uncertainty: q(0.2), tau: 0.8 },
                StaircaseLevel { min_uncertainty: q(0.4), tau: 0.9 },
                StaircaseLevel { min_uncertainty: q(0.6), tau: 0.95 },
                StaircaseLevel { min_uncertainty: q(0.8), tau: 0.99 },
            ]),
        ),
    ];

    let mut table =
        Table::new(&["strategy", "under-prov", "over-prov", "avg nodes", "nodes vs fixed-0.95"]);
    let mut csv: Vec<(String, Vec<f64>)> = Vec::new();
    let baseline = {
        let mgr = RobustAutoScalingManager::new(THETA, 1, ScalingStrategy::Fixed { tau: 0.95 });
        evaluate_plans_precomputed(&windows, &mgr).avg_allocated
    };
    for (name, strategy) in strategies {
        let mgr = RobustAutoScalingManager::new(THETA, 1, strategy);
        let r = evaluate_plans_precomputed(&windows, &mgr);
        table.row(vec![
            name.into(),
            f(r.under_rate),
            f(r.over_rate),
            f(r.avg_allocated),
            format!("{:+.1}%", (r.avg_allocated / baseline - 1.0) * 100.0),
        ]);
        csv.push((name.replace(' ', "_"), vec![r.under_rate, r.over_rate, r.avg_allocated]));
    }
    table.print("Staircase ablation — DeepAR on google trace");
    let refs: Vec<(&str, &[f64])> = csv.iter().map(|(n, v)| (n.as_str(), v.as_slice())).collect();
    write_csv("ablation_staircase.csv", &refs);

    println!(
        "\nReading: the staircase variants should sit on or inside the two-level adaptive \
         frontier — similar under-provisioning at equal or lower average node cost — \
         realising the paper's 'more precise control' claim (§III-C2)."
    );
}
