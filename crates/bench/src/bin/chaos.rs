//! **Chaos scenario** — robustness deltas under fault injection.
//!
//! Runs each scaling policy (Reactive-Max, bare seasonal-naive predictive,
//! and the same predictive wrapped in the resilience pipeline) through the
//! cluster simulator under three fault profiles (none / light / heavy) and
//! reports the QoS-violation and recovery-time *deltas* against the
//! fault-free run of the same policy — i.e. how much each fault profile
//! costs, and how much of that cost the degradation pipeline claws back.
//!
//! Run: `cargo run --release -p rpas-bench --bin chaos`
//! (`RPAS_PROFILE=quick` for a fast pass.)

use rpas_bench::output::f;
use rpas_bench::{bench_obs, write_csv, ExperimentProfile, Table};
use rpas_core::{
    QuantilePredictivePolicy, ReactiveMax, ReplanSchedule, ResilienceConfig, ResilientManager,
    RobustAutoScalingManager, ScalingStrategy,
};
use rpas_forecast::{Forecaster, SeasonalNaive};
use rpas_simdb::{FaultConfig, FaultPlan, ScalingPolicy, SimConfig, Simulation, SimulationReport};
use rpas_traces::{alibaba_like, Trace, STEPS_PER_DAY};

const THETA: f64 = 60.0;
const FAULT_SEED: u64 = 101;

fn predictive(trace: &Trace, period: usize) -> QuantilePredictivePolicy<SeasonalNaive> {
    let mut fc = SeasonalNaive::new(period);
    fc.fit(&trace.values[..trace.len() / 2]).expect("naive fit");
    let manager = RobustAutoScalingManager::new(THETA, 1, ScalingStrategy::Fixed { tau: 0.9 });
    QuantilePredictivePolicy::new(
        "predictive",
        fc,
        manager,
        ReplanSchedule { context: period, horizon: period.min(72) },
    )
}

fn run_policy(
    trace: &Trace,
    plan: Option<&FaultPlan>,
    policy: &mut dyn ScalingPolicy,
) -> SimulationReport {
    let cfg = SimConfig { theta: THETA, ..Default::default() };
    let sim = Simulation::new(trace, cfg).with_obs(bench_obs().clone());
    match plan {
        Some(p) => sim.with_faults(p.clone()).run(policy),
        None => sim.run(policy),
    }
}

fn main() {
    let p = ExperimentProfile::from_env();
    println!("Chaos scenario — fault-injection robustness, profile {:?}", p.profile);
    let days = p.trace_days.max(4);
    let trace = alibaba_like(p.trace_seed, days).cpu().clone();
    let period = STEPS_PER_DAY;

    let profiles: [(&str, Option<FaultConfig>); 3] = [
        ("none", None),
        ("light", Some(FaultConfig::light())),
        ("heavy", Some(FaultConfig::heavy())),
    ];
    let policies = ["reactive-max", "predictive", "resilient"];

    // baselines[policy] = fault-free violation rate, filled by the first
    // (none) profile pass.
    let mut baselines = vec![0.0f64; policies.len()];
    let mut table = Table::new(&[
        "profile",
        "policy",
        "violation",
        "Δ violation",
        "mean recovery (steps)",
        "max recovery",
    ]);
    let mut csv_rows: Vec<(String, Vec<f64>)> = Vec::new();

    for (pname, fcfg) in &profiles {
        let plan = fcfg.map(|c| FaultPlan::build(c, FAULT_SEED, trace.len()));
        for (pi, policy_name) in policies.iter().enumerate() {
            let report = match *policy_name {
                "reactive-max" => {
                    let mut pol = ReactiveMax::new(6);
                    run_policy(&trace, plan.as_ref(), &mut pol)
                }
                "predictive" => {
                    let mut pol = predictive(&trace, period);
                    run_policy(&trace, plan.as_ref(), &mut pol)
                }
                _ => {
                    let rcfg = ResilienceConfig {
                        naive_period: period,
                        naive_horizon: period.min(72),
                        max_nodes: 1024,
                        ..Default::default()
                    };
                    let mut pol = ResilientManager::with_config(predictive(&trace, period), rcfg);
                    run_policy(&trace, plan.as_ref(), &mut pol)
                }
            };
            if fcfg.is_none() {
                baselines[pi] = report.violation_rate;
            }
            let delta = report.violation_rate - baselines[pi];
            let (mean_rec, max_rec) = report
                .recovery
                .map(|r| (r.mean_steps, r.max_steps as f64))
                .unwrap_or((0.0, 0.0));
            table.row(vec![
                (*pname).into(),
                (*policy_name).into(),
                f(report.violation_rate),
                f(delta),
                f(mean_rec),
                f(max_rec),
            ]);
            csv_rows.push((
                format!("{pname}_{policy_name}"),
                vec![report.violation_rate, delta, mean_rec, max_rec],
            ));
        }
    }

    table.print("Chaos — QoS-violation and recovery deltas vs fault-free");
    let refs: Vec<(&str, &[f64])> =
        csv_rows.iter().map(|(n, v)| (n.as_str(), v.as_slice())).collect();
    write_csv("chaos.csv", &refs);

    println!(
        "\nShape check: under light/heavy faults the resilient pipeline's violation \
         rate must sit below the bare predictive policy's under the same fault plan."
    );
}
