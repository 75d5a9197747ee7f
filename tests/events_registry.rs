//! Runtime containment for `events-registry.json`: every obs event an
//! actual run emits — a rolling backtest with the manager's decision
//! audit, and a supervised fleet smoke with a poisoned tenant — must be
//! a registered name. The static side (every emit site in the source is
//! registered, no orphaned entries) is rule E1 in `rpas-lint`; this test
//! closes the loop for names the static extractor cannot see through
//! dynamic arguments.

use rpas::core::{
    backtest_quantile, AdaptiveConfig, FleetConfig, FleetEngine, FleetSupervisor,
    RobustAutoScalingManager, ScalingStrategy, SupervisorConfig, TenantHealth,
};
use rpas::forecast::{Forecaster, SeasonalNaive, SCALING_LEVELS};
use rpas::lint::registry::{self, EventsRegistry};
use rpas::obs::{schema, MemorySink, Obs};
use rpas::simdb::{FaultConfig, Observation, PolicyHealth, ScalingPolicy};
use rpas::telemetry::{SloSpec, Telemetry};
use rpas::traces::{alibaba_like, STEPS_PER_DAY};
use std::collections::BTreeSet;

fn committed_registry() -> EventsRegistry {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(root.join("events-registry.json"))
        .expect("events-registry.json is committed at the workspace root");
    registry::parse(&src).expect("committed registry parses")
}

/// Assert `span/event` is a registered name. Runtime names are always
/// concrete, so an exact hit is the normal case; the dynamic-suffix
/// match covers entries whose span only exists at runtime.
fn assert_registered(reg: &EventsRegistry, span: &str, event: &str, ctx: &str) {
    let name = format!("{span}/{event}");
    assert!(
        reg.contains(&name) || reg.has_dynamic_event(event),
        "{ctx} emitted unregistered event `{name}` — \
         regenerate with `cargo run --bin lint -- --write-events` and review the diff"
    );
}

#[test]
fn backtest_events_are_all_registered() {
    let reg = committed_registry();
    let sink = MemorySink::new();
    let obs = Obs::with_sink(Box::new(sink.clone()));

    let trace = alibaba_like(1, 6).cpu().clone();
    let (train, test) = trace.train_test_split(0.7);
    let mut model = SeasonalNaive::new(STEPS_PER_DAY);
    model.fit(&train.values).expect("fit");
    let manager = RobustAutoScalingManager::new(
        60.0,
        1,
        ScalingStrategy::Adaptive(AdaptiveConfig::new(0.8, 0.95, 1.0)),
    )
    .with_obs(obs.clone());

    let timer = obs.span("backtest", "rolling");
    let report =
        backtest_quantile(&model, &test.values, STEPS_PER_DAY, 24, &manager, &SCALING_LEVELS);
    timer.finish(|e| {
        e.field("windows", report.windows.len());
    });

    let events = sink.events();
    assert!(!events.is_empty(), "backtest emitted nothing — capture wiring broke");
    let mut seen = BTreeSet::new();
    for ev in &events {
        assert_registered(&reg, &ev.span, &ev.name, "backtest");
        seen.insert(format!("{}/{}", ev.span, ev.name));
    }
    // The streams this test exists to cover actually flowed.
    for expected in ["rolling/window", "rolling/eval", "plan/decision", "backtest/span_close"] {
        assert!(seen.contains(expected), "backtest trace lost `{expected}`: {seen:?}");
    }
}

/// A policy that panics on every decision — drives the supervisor's
/// panic/quarantine event family into the trace.
struct AlwaysPanics;

impl ScalingPolicy for AlwaysPanics {
    fn name(&self) -> &'static str {
        "always-panics"
    }
    fn decide(&mut self, _obs: &Observation) -> u32 {
        panic!("injected failure")
    }
    fn health(&self) -> PolicyHealth {
        PolicyHealth::Healthy
    }
}

#[test]
fn fleet_smoke_trace_is_fully_registered() {
    let reg = committed_registry();
    let mut cfg = FleetConfig::new(8, 42);
    cfg.days = 1;
    cfg.capture_events = true;
    cfg.faults = Some(FaultConfig::heavy());
    cfg.slo = Some(SloSpec::violation_rate_default());

    let tel = Telemetry::live();
    let mut engine = FleetEngine::with_telemetry(&cfg, &tel);
    engine.set_policy(5, Box::new(AlwaysPanics));
    let mut sup = FleetSupervisor::wrap_with(engine, SupervisorConfig::default(), &tel);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    sup.run_to_completion();
    std::panic::set_hook(hook);
    assert!(matches!(sup.health(5), TenantHealth::Quarantined { .. }));
    let report = sup.finish();

    assert!(!report.trace_lines.is_empty(), "fleet smoke produced no trace");
    let mut seen = BTreeSet::new();
    for line in &report.trace_lines {
        let parsed = schema::validate_line(line)
            .unwrap_or_else(|e| panic!("trace line failed schema validation: {e}\n{line}"));
        assert_registered(&reg, &parsed.span, &parsed.event, "fleet smoke");
        seen.insert(format!("{}/{}", parsed.span, parsed.event));
    }
    for expected in ["sim/step", "fault/anomaly", "supervisor/panic", "supervisor/quarantine"] {
        assert!(seen.contains(expected), "fleet trace lost `{expected}`: {seen:?}");
    }
}
