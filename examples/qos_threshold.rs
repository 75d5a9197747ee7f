//! QoS-driven threshold selection (§V-B extension): derive the scaling
//! threshold θ from a latency SLO via the queueing performance model, then
//! verify compliance in the simulator.
//!
//! Run: `cargo run --release --example qos_threshold`

use rpas::core::{QuantilePredictivePolicy, ReplanSchedule, RobustAutoScalingManager, ScalingStrategy};
use rpas::forecast::{Forecaster, SeasonalNaive};
use rpas::simdb::{slo_report, LatencyModel, SimConfig, SimSession};
use rpas::traces::{alibaba_like, STEPS_PER_DAY};

fn main() {
    // SLO: p99 query latency ≤ 120 ms. A node serves queries in 5 ms when
    // idle and saturates at 100 workload units.
    let model = LatencyModel::new(5.0, 100.0);
    let slo_ms = 120.0;
    let theta = model.max_utilization_for(slo_ms, 0.99);
    println!(
        "latency model: base 5 ms, capacity 100 → θ = {theta:.1} workload/node for p99 ≤ {slo_ms} ms"
    );

    let trace = alibaba_like(13, 14).cpu().clone();
    let (train, test) = trace.train_test_split(0.6);
    let mut fc = SeasonalNaive::new(STEPS_PER_DAY);
    fc.fit(&train.values).expect("fit");

    for tau in [0.5, 0.9, 0.99] {
        let mut fc_run = SeasonalNaive::new(STEPS_PER_DAY);
        fc_run.fit(&train.values).expect("fit");
        let manager = RobustAutoScalingManager::new(theta, 1, ScalingStrategy::Fixed { tau });
        let mut policy = QuantilePredictivePolicy::new(
            "robust",
            fc_run,
            manager,
            ReplanSchedule { context: STEPS_PER_DAY, horizon: 72 },
        );
        let report = SimSession::new(&test, SimConfig { theta, ..Default::default() })
            .run(&mut policy);
        let slo = slo_report(&report, &model, slo_ms, 0.99);
        println!(
            "τ={tau:<5} SLO compliance {:>6.2}%  mean p99 {:>7.1} ms  saturated steps {:>3}  avg nodes {:.2}",
            slo.compliance * 100.0,
            slo.mean_tail_latency_ms,
            slo.saturated_steps,
            report.provisioning.avg_allocated,
        );
    }
    println!(
        "\nHigher τ buys SLO compliance with more nodes; the θ derived from the latency \
         model makes that trade explicit instead of hand-picking a threshold (§V-B)."
    );
}
