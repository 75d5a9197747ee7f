//! Cross-crate integration tests: the paper's full pipeline — trace →
//! probabilistic forecaster → robust auto-scaling manager → simulator /
//! provisioning metrics — wired through the public `rpas` API.

use rpas::core::{
    backtest, evaluate_reactive, quantile_windows, AdaptiveConfig, PlanningBackend,
    QuantilePredictivePolicy, ReactiveAvg, ReactiveMax, ReplanSchedule, RobustAutoScalingManager,
    RollingSpec, ScalingStrategy,
};
use rpas::forecast::{
    DeepAr, DeepArConfig, Forecaster, SeasonalNaive, Tft, TftConfig, SCALING_LEVELS,
};
use rpas::obs::Obs;
use rpas::simdb::{SimConfig, SimSession};
use rpas::traces::{alibaba_like, google_like, STEPS_PER_DAY};

const THETA: f64 = 60.0;

/// Small-but-real TFT for integration testing (trains in seconds).
fn small_tft(context: usize, horizon: usize) -> Tft {
    Tft::new(TftConfig {
        context,
        horizon,
        d_model: 16,
        heads: 2,
        quantiles: SCALING_LEVELS.to_vec(),
        epochs: 8,
        lr: 2e-3,
        windows_per_epoch: 48,
        seed: 42,
    })
}

#[test]
fn full_pipeline_trace_to_plan() {
    let trace = alibaba_like(1, 12).cpu().clone();
    let (train, test) = trace.train_test_split(0.7).unwrap();

    let mut tft = small_tft(48, 24);
    tft.fit(&train.values).expect("fit");
    let qf = tft
        .forecast_quantiles(&test.values[..48], 24, &SCALING_LEVELS)
        .expect("forecast");

    assert_eq!(qf.horizon(), 24);
    assert!(qf.is_monotone());

    let manager = RobustAutoScalingManager::new(THETA, 1, ScalingStrategy::Fixed { tau: 0.9 });
    let plan = manager.plan(&qf);
    assert_eq!(plan.len(), 24);
    // Allocation must cover the 0.9-quantile forecast at every step.
    for t in 0..24 {
        let need = qf.at(t, 0.9).max(0.0) / THETA;
        assert!(plan.at(t) as f64 >= need - 1e-9, "step {t}");
    }
}

#[test]
fn closed_form_and_simplex_agree_on_real_forecasts() {
    let trace = google_like(2, 10).cpu().clone();
    let (train, test) = trace.train_test_split(0.7).unwrap();
    let mut sn = SeasonalNaive::new(STEPS_PER_DAY);
    sn.fit(&train.values).expect("fit");
    let qf = sn
        .forecast_quantiles(&test.values[..STEPS_PER_DAY], 36, &SCALING_LEVELS)
        .expect("forecast");
    for &tau in &[0.5, 0.8, 0.95] {
        let manager = RobustAutoScalingManager::new(THETA, 1, ScalingStrategy::Fixed { tau });
        let simplex = manager.clone().with_backend(PlanningBackend::Simplex);
        assert_eq!(manager.plan(&qf), simplex.plan(&qf), "tau {tau}");
    }
}

#[test]
fn robust_beats_reactive_on_under_provisioning() {
    // The paper's headline claim (Fig. 9), on the Alibaba-like trace with a
    // seasonal-naive quantile forecaster (deterministic & fast).
    let trace = alibaba_like(3, 21).cpu().clone();
    let (train, test) = trace.train_test_split(0.6).unwrap();

    let mut fc = SeasonalNaive::new(STEPS_PER_DAY);
    fc.fit(&train.values).expect("fit");
    let manager = RobustAutoScalingManager::new(THETA, 1, ScalingStrategy::Fixed { tau: 0.95 });
    let spec = RollingSpec::new(STEPS_PER_DAY, 72);
    let windows = quantile_windows(&fc, &test.values, spec, &SCALING_LEVELS, &Obs::noop());
    let robust = backtest(&windows, spec, &manager).overall;

    let mut ravg = ReactiveAvg::paper_default();
    let reactive = evaluate_reactive(&mut ravg, &test.values, THETA, 1);

    assert!(
        robust.under_rate < reactive.under_rate,
        "robust {:?} vs reactive {:?}",
        robust.under_rate,
        reactive.under_rate
    );
}

#[test]
fn adaptive_reduces_overprovisioning_without_losing_robustness() {
    // Fig. 11's claim, checked end-to-end with a trained TFT on the bursty
    // Google-like trace: adaptive (τ₁=0.8, τ₂=0.95) must allocate no more
    // than fixed τ₂ and stay within it on under-provisioning tolerance.
    let trace = google_like(4, 12).cpu().clone();
    let (train, test) = trace.train_test_split(0.7).unwrap();
    let mut tft = small_tft(48, 24);
    tft.fit(&train.values).expect("fit");

    // Pick rho as the median uncertainty over the first test window.
    let qf = tft
        .forecast_quantiles(&test.values[..48], 24, &SCALING_LEVELS)
        .expect("forecast");
    let u = rpas::core::uncertainty_series(&qf);
    let rho = rpas::tsmath::stats::median(&u);

    let fixed_hi = RobustAutoScalingManager::new(THETA, 1, ScalingStrategy::Fixed { tau: 0.95 });
    let adaptive = RobustAutoScalingManager::new(
        THETA,
        1,
        ScalingStrategy::Adaptive(AdaptiveConfig::new(0.8, 0.95, rho)),
    );

    let spec = RollingSpec::new(48, 24);
    let windows = quantile_windows(&tft, &test.values, spec, &SCALING_LEVELS, &Obs::noop());
    let r_hi = backtest(&windows, spec, &fixed_hi).overall;
    let r_ad = backtest(&windows, spec, &adaptive).overall;

    assert!(r_ad.avg_allocated <= r_hi.avg_allocated + 1e-9, "{r_ad:?} vs {r_hi:?}");
    assert!(r_ad.over_rate <= r_hi.over_rate + 1e-9);
    // Robustness must not collapse: allow a modest increase in under-rate.
    assert!(r_ad.under_rate <= r_hi.under_rate + 0.1, "{r_ad:?} vs {r_hi:?}");
}

#[test]
fn deepar_pipeline_through_simulator() {
    // DeepAR + robust manager driving the disaggregated-DB simulator.
    let trace = alibaba_like(5, 10).cpu().clone();
    let (train, test) = trace.train_test_split(0.6).unwrap();
    let mut deepar = DeepAr::new(DeepArConfig {
        context: 48,
        train_window: 72,
        hidden: 16,
        epochs: 6,
        lr: 2e-3,
        windows_per_epoch: 48,
        num_samples: 50,
        seed: 7,
    });
    deepar.fit(&train.values).expect("fit");

    let manager = RobustAutoScalingManager::new(THETA, 1, ScalingStrategy::Fixed { tau: 0.9 });
    let mut policy = QuantilePredictivePolicy::new(
        "deepar-0.9",
        deepar,
        manager,
        ReplanSchedule { context: 48, horizon: 24 },
    );
    let report = SimSession::new(&test, SimConfig { theta: THETA, ..Default::default() })
        .run(&mut policy);

    assert_eq!(report.steps.len(), test.len());
    // The warm-up model keeps scale-outs cheap: pool capacity deficits from
    // warm-up must not push violation rate far beyond the planning
    // under-rate.
    assert!(report.violation_rate <= report.provisioning.under_rate + 0.05);
    // And the robust policy must be meaningfully robust after bootstrap.
    let tail = &report.steps[STEPS_PER_DAY.min(report.steps.len() - 1)..];
    let tail_viol = tail.iter().filter(|s| s.violation).count() as f64 / tail.len() as f64;
    assert!(tail_viol < 0.25, "tail violation rate {tail_viol}");
}

#[test]
fn reactive_max_vs_avg_ordering_end_to_end() {
    let trace = google_like(6, 10).cpu().clone();
    let cfg = SimConfig { theta: THETA, ..Default::default() };
    let r1 = SimSession::new(&trace, cfg).run(&mut ReactiveMax::new(6));
    let r2 = SimSession::new(&trace, cfg).run(&mut ReactiveAvg::paper_default());
    // Max is the more conservative reactive policy.
    assert!(r1.provisioning.under_rate <= r2.provisioning.under_rate);
    assert!(r1.total_node_steps() >= r2.total_node_steps());
}
