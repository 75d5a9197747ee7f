//! Chaos-matrix end-to-end tests: the fault profiles × policy grid must
//! run without panics, the resilience pipeline must beat the bare
//! predictive policy under the same fault plan, and same-seed reruns must
//! be bit-for-bit identical.

use rpas::core::{
    QuantilePredictivePolicy, ReactiveMax, ReplanSchedule, ResilienceConfig, ResilientManager,
    RobustAutoScalingManager, ScalingStrategy,
};
use rpas::forecast::{Forecaster, SeasonalNaive};
use rpas::simdb::{FaultConfig, FaultPlan, ScalingPolicy, SimConfig, SimSession, SimulationReport};
use rpas::traces::{alibaba_like, Trace, STEPS_PER_DAY};

const THETA: f64 = 60.0;
const FAULT_SEED: u64 = 101;

fn trace() -> Trace {
    alibaba_like(7, 4).cpu().clone()
}

fn predictive(trace: &Trace) -> QuantilePredictivePolicy<SeasonalNaive> {
    let mut fc = SeasonalNaive::new(STEPS_PER_DAY);
    Forecaster::fit(&mut fc, &trace.values[..trace.len() / 2]).expect("fit");
    let manager = RobustAutoScalingManager::new(THETA, 1, ScalingStrategy::Fixed { tau: 0.9 });
    QuantilePredictivePolicy::new(
        "predictive",
        fc,
        manager,
        ReplanSchedule { context: STEPS_PER_DAY, horizon: 72 },
    )
}

fn resilient(trace: &Trace) -> ResilientManager<QuantilePredictivePolicy<SeasonalNaive>> {
    let cfg = ResilienceConfig {
        max_nodes: 1024,
        naive_period: STEPS_PER_DAY,
        naive_horizon: 72,
        ..Default::default()
    };
    ResilientManager::with_config(predictive(trace), cfg)
}

fn run(
    trace: &Trace,
    fault_cfg: Option<FaultConfig>,
    policy: &mut dyn ScalingPolicy,
) -> SimulationReport {
    let session = SimSession::new(trace, SimConfig { theta: THETA, ..Default::default() });
    match fault_cfg {
        Some(c) => session.with_faults(FaultPlan::build(c, FAULT_SEED, trace.len())).run(policy),
        None => session.run(policy),
    }
}

#[test]
fn chaos_matrix_runs_clean_across_profiles_and_policies() {
    let tr = trace();
    let profiles =
        [None, Some(FaultConfig::light()), Some(FaultConfig::heavy())];
    for cfg in profiles {
        let reports = [
            run(&tr, cfg, &mut ReactiveMax::new(6)),
            run(&tr, cfg, &mut predictive(&tr)),
            run(&tr, cfg, &mut resilient(&tr)),
        ];
        for r in &reports {
            assert_eq!(r.steps.len(), tr.len());
            assert!(r.violation_rate.is_finite());
            assert!((0.0..=1.0).contains(&r.violation_rate));
            for s in &r.steps {
                assert!(s.pool_nodes >= 1, "pool emptied at step {}", s.step);
            }
            match cfg {
                None => {
                    assert_eq!(r.faults.total(), 0);
                    assert!(r.recovery.is_none());
                }
                Some(_) => {
                    assert!(r.faults.total() > 0, "no faults applied in a faulted run");
                    assert!(r.recovery.is_some());
                }
            }
        }
    }
}

#[test]
fn resilient_pipeline_beats_bare_predictive_under_faults() {
    let tr = trace();
    for cfg in [FaultConfig::light(), FaultConfig::heavy()] {
        let bare = run(&tr, Some(cfg), &mut predictive(&tr));
        let wrapped = run(&tr, Some(cfg), &mut resilient(&tr));
        assert!(
            wrapped.violation_rate < bare.violation_rate,
            "resilient {:.4} must beat bare {:.4}",
            wrapped.violation_rate,
            bare.violation_rate,
        );
    }
}

#[test]
fn same_seed_chaos_runs_are_bit_identical() {
    let tr = trace();
    let a = run(&tr, Some(FaultConfig::heavy()), &mut resilient(&tr));
    let b = run(&tr, Some(FaultConfig::heavy()), &mut resilient(&tr));
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.recovery, b.recovery);
    assert_eq!(a.violation_rate, b.violation_rate);
    // ... and the published schedule artifact is byte-identical too.
    let s1 = FaultPlan::build(FaultConfig::heavy(), FAULT_SEED, tr.len())
        .schedule_jsonl(Some("heavy"));
    let s2 = FaultPlan::build(FaultConfig::heavy(), FAULT_SEED, tr.len())
        .schedule_jsonl(Some("heavy"));
    assert_eq!(s1, s2);
    assert!(!s1.is_empty());
}
