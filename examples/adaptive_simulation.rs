//! End-to-end simulation: drive the disaggregated-database simulator with
//! three scaling policies over a bursty Google-like trace and compare
//! robustness vs efficiency — the paper's §IV-C experiment in miniature,
//! including warm-up effects and thrash limiting (§V-A).
//!
//! Run: `cargo run --release --example adaptive_simulation`

use rpas::core::{
    QuantilePredictivePolicy, ReactiveAvg, ReplanSchedule, RobustAutoScalingManager,
    ScalingStrategy, ThrashConfig, ThrashLimited,
};
use rpas::forecast::{Forecaster, SeasonalNaive};
use rpas::simdb::{ScalingPolicy, SimConfig, SimSession};
use rpas::traces::{google_like, STEPS_PER_DAY};

fn main() {
    let trace = google_like(11, 21).cpu().clone();
    let (train, test) = trace.train_test_split(0.5);
    println!(
        "simulating {} steps ({} days) of Google-like CPU workload",
        test.len(),
        test.len() / STEPS_PER_DAY
    );

    // One session per run: a session is one policy over one cluster.
    let cfg = SimConfig { theta: 60.0, min_nodes: 1, max_nodes: 64, ..Default::default() };
    let simulate = |policy: &mut dyn ScalingPolicy| SimSession::new(&test, cfg).run(policy);

    // Reactive baseline.
    let mut reactive = ReactiveAvg::paper_default();
    let r_reactive = simulate(&mut reactive);

    // Robust predictive policy (fixed τ = 0.9).
    let mut fc = SeasonalNaive::new(STEPS_PER_DAY);
    fc.fit(&train.values).expect("fit");
    let manager = RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau: 0.9 });
    let mut robust = QuantilePredictivePolicy::new(
        "robust-0.9",
        fc,
        manager,
        ReplanSchedule { context: STEPS_PER_DAY, horizon: 72 },
    );
    let r_robust = simulate(&mut robust);

    // The same policy behind a thrash limiter.
    let mut fc2 = SeasonalNaive::new(STEPS_PER_DAY);
    fc2.fit(&train.values).expect("fit");
    let manager2 = RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau: 0.9 });
    let inner = QuantilePredictivePolicy::new(
        "robust-0.9",
        fc2,
        manager2,
        ReplanSchedule { context: STEPS_PER_DAY, horizon: 72 },
    );
    let mut smooth = ThrashLimited::new(
        inner,
        ThrashConfig { max_step_delta: 2, direction_cooldown: 3 },
    );
    let r_smooth = simulate(&mut smooth);

    println!(
        "\n{:<14} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "policy", "under", "over", "violation", "node-steps", "scale events"
    );
    for r in [&r_reactive, &r_robust, &r_smooth] {
        println!(
            "{:<14} {:>10.4} {:>10.4} {:>10.4} {:>12} {:>12}",
            r.policy,
            r.provisioning.under_rate,
            r.provisioning.over_rate,
            r.violation_rate,
            r.total_node_steps(),
            r.scale_out_events + r.scale_in_events,
        );
    }
    println!(
        "\nExpected shape: the robust predictive policy cuts under-provisioning \
         dramatically vs the reactive baseline at some over-provisioning cost; the \
         thrash-limited variant trades a little robustness for far fewer scale events."
    );
}
