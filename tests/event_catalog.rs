//! The event catalogue (`rpas::obs::catalog`) against what actually runs:
//! a rolling backtest with the manager's decision audit, and a supervised
//! fleet smoke with a poisoned tenant. Every event either run produces
//! must be a catalogue entry at its declared level, and every catalogue
//! entry must be produced by one of the two runs or be named in
//! [`NOT_IN_SMOKES`] — so an entry nothing emits can only hide in a list
//! a reviewer reads. The fleet smoke's counters must also equal its
//! captured events, per tenant, for every entry that declares one.

use rpas::core::{
    backtest, quantile_windows, AdaptiveConfig, FleetConfig, FleetEngine, FleetSupervisor,
    RobustAutoScalingManager, RollingSpec, ScalingStrategy, SupervisorConfig, TenantHealth,
};
use rpas::forecast::{Forecaster, SeasonalNaive, SCALING_LEVELS};
use rpas::obs::catalog::{self, EventName};
use rpas::obs::{schema, Level, MemorySink, Obs, TraceLine};
use rpas::simdb::{FaultConfig, Observation, PolicyHealth, ScalingPolicy};
use rpas::telemetry::{SloSpec, Telemetry};
use rpas::traces::{alibaba_like, STEPS_PER_DAY};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// Catalogue entries neither smoke below emits, each with where it does
/// come from.
const NOT_IN_SMOKES: &[EventName] = &[
    // The benchmark ledger's emit probes (`ledger/src/probes.rs`), which
    // name it by string.
    catalog::BENCH_MEASUREMENT,
    // The `experiments` bin.
    catalog::BENCH_UNKNOWN_EXPERIMENT,
    catalog::BENCH_WRITE_FAILED,
    // The `cli` binary (`tests/cli_e2e.rs` drives it).
    catalog::CLI_FATAL,
    catalog::CLI_NO_WEIGHT_SNAPSHOT,
    catalog::CLI_TRAIN_START,
    catalog::FLEET_KILLED,
    catalog::FLEET_RESUME,
    catalog::FLEET_START,
    // Naive forecasters on a too-short history (`rpas-forecast` unit tests).
    catalog::FORECAST_FLAT_FALLBACK,
    catalog::FORECAST_SHORT_HISTORY_SIGMA,
    // Environment problems: unwritable trace path, malformed RPAS_THREADS.
    catalog::OBS_TRACE_OPEN_FAILED,
    catalog::PAR_THREADS_OVERRIDE_IGNORED,
    // Degradation-ladder rungs one day of heavy faults does not reach
    // (`tests/failure_injection.rs`, `tests/chaos_e2e.rs`).
    catalog::RESILIENCE_BACKSTOP,
    catalog::RESILIENCE_FALLBACK,
    catalog::RESILIENCE_GUARDRAIL_CLAMP,
    catalog::RESILIENCE_RECOVER,
    catalog::RESILIENCE_RETRY_EXHAUSTED,
    // No tenant trace here carries a zero-workload step.
    catalog::SIM_ZERO_WORKLOAD,
    // The fleet's SLO evaluation speaks on the run's `Obs` handle (dark
    // here), not into the tenant-scoped trace (`rpas-telemetry` and
    // `rpas-core` fleet unit tests).
    catalog::SLO_BURN_ALERT,
    catalog::SLO_STATUS,
    // The smoke's poisoned tenant never leaves quarantine for good.
    catalog::SUPERVISOR_HEALTHY,
    // Neural training audits (`crates/forecast/tests/persistence.rs`).
    catalog::TRAIN_DEEPAR_EPOCH,
    catalog::TRAIN_MLP_QUANTILE_EPOCH,
    catalog::TRAIN_MLP_EPOCH,
    catalog::TRAIN_TFT_EPOCH,
];

/// Record one observed event: it must be catalogued, at the catalogued
/// level.
fn record(seen: &mut BTreeSet<String>, span: &str, event: &str, level: Level, ctx: &str) {
    let name = catalog::find(span, event)
        .unwrap_or_else(|| panic!("{ctx} emitted `{span}/{event}`, which is not in the catalogue"));
    assert_eq!(name.level(), level, "{ctx} emitted `{name}` off its catalogued level");
    seen.insert(name.to_string());
}

/// Names emitted by a rolling backtest under an adaptive manager.
fn backtest_smoke() -> &'static BTreeSet<String> {
    static SEEN: OnceLock<BTreeSet<String>> = OnceLock::new();
    SEEN.get_or_init(|| {
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

        let timer = obs.span(catalog::BACKTEST_SPAN_CLOSE, "rolling");
        let spec = RollingSpec::new(STEPS_PER_DAY, 24);
        let windows = quantile_windows(&model, &test.values, spec, &SCALING_LEVELS, &obs);
        let report = backtest(&windows, spec, &manager);
        timer.finish(|e| {
            e.field("windows", report.windows.len());
        });

        let events = sink.events();
        assert!(!events.is_empty(), "backtest emitted nothing — capture wiring broke");
        let mut seen = BTreeSet::new();
        for ev in &events {
            record(&mut seen, ev.span(), ev.name(), ev.level(), "backtest");
        }
        seen
    })
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

/// What a supervised, faulted, SLO-watched fleet with one poisoned
/// tenant leaves behind.
struct FleetSmoke {
    /// Names in its tenant-scoped trace.
    seen: BTreeSet<String>,
    /// The trace itself, parsed.
    lines: Vec<TraceLine>,
    /// The live registry's exposition at finish.
    exposition: String,
}

fn fleet_smoke() -> &'static FleetSmoke {
    static SMOKE: OnceLock<FleetSmoke> = OnceLock::new();
    SMOKE.get_or_init(|| {
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
        let mut lines = Vec::with_capacity(report.trace_lines.len());
        for line in &report.trace_lines {
            let parsed = schema::validate_line(line)
                .unwrap_or_else(|e| panic!("trace line failed schema validation: {e}\n{line}"));
            record(&mut seen, &parsed.span, &parsed.event, parsed.level, "fleet smoke");
            lines.push(parsed);
        }
        FleetSmoke { seen, lines, exposition: tel.snapshot().exposition() }
    })
}

fn assert_flowed(seen: &BTreeSet<String>, expected: &[EventName], ctx: &str) {
    for name in expected {
        assert!(seen.contains(&name.to_string()), "{ctx} trace lost `{name}`: {seen:?}");
    }
}

#[test]
fn backtest_events_are_all_catalogued() {
    // The streams this test exists to cover actually flowed.
    assert_flowed(
        backtest_smoke(),
        &[
            catalog::ROLLING_WINDOW,
            catalog::ROLLING_EVAL,
            catalog::PLAN_DECISION,
            catalog::BACKTEST_SPAN_CLOSE,
        ],
        "backtest",
    );
}

#[test]
fn fleet_smoke_trace_is_fully_catalogued() {
    assert_flowed(
        &fleet_smoke().seen,
        &[
            catalog::SIM_STEP,
            catalog::FAULT_ANOMALY,
            catalog::SUPERVISOR_PANIC,
            catalog::SUPERVISOR_QUARANTINE,
        ],
        "fleet",
    );
}

#[test]
fn fleet_smoke_counters_equal_its_captured_events() {
    let smoke = fleet_smoke();
    // Captured lines per `metric{tenant="…"}` cell; entries that share a
    // metric add up in its cell.
    let mut captured: BTreeMap<String, u64> = BTreeMap::new();
    for line in &smoke.lines {
        let name = catalog::find(&line.span, &line.event).expect("catalogued");
        if let Some(metric) = name.counter() {
            let tenant = line.fields["tenant"].as_str().expect("tenant-scoped line");
            *captured.entry(format!("{metric}{{tenant=\"{tenant}\"}}")).or_default() += 1;
        }
    }
    let declared: BTreeSet<&str> = catalog::ALL.iter().filter_map(|n| n.counter()).collect();
    let mut counted = BTreeSet::new();
    for row in smoke.exposition.lines() {
        let (cell, value) = row.split_once(" counter ").unwrap_or((row, ""));
        let metric = cell.split('{').next().unwrap_or(cell);
        if !declared.contains(metric) {
            continue;
        }
        let value: u64 = value.parse().unwrap_or_else(|_| panic!("not a counter row: {row}"));
        assert_eq!(value, captured.remove(cell).unwrap_or(0), "{cell}: counter vs captured lines");
        if value > 0 {
            counted.insert(metric);
        }
    }
    assert!(captured.is_empty(), "captured events no counter cell holds: {captured:?}");
    // The check compared real counts, not only zero rows.
    for metric in [
        "sim.steps",
        "sim.faults",
        "resilience.hold_last",
        "resilience.retries",
        "supervisor.panics",
        "supervisor.quarantines",
        "supervisor.restores",
    ] {
        assert!(counted.contains(metric), "the smoke counted no `{metric}`");
    }
}

#[test]
fn catalogue_is_sorted_unique_and_in_the_schema_charset() {
    let names: Vec<String> = catalog::ALL.iter().map(EventName::to_string).collect();
    for pair in names.windows(2) {
        assert!(pair[0] < pair[1], "`{}` then `{}`: not sorted, or a duplicate", pair[0], pair[1]);
    }
    // Schema-v1 names: nothing a JSON string would escape, and no `/`, so
    // the `span/event` keys `trace-report` and `obs query` print split
    // back unambiguously.
    let well_formed = |s: &str| {
        !s.is_empty()
            && s.bytes().all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'_' | b'.' | b'-'))
    };
    for name in catalog::ALL {
        assert!(well_formed(name.span()) && well_formed(name.name()), "`{name}`");
        assert_eq!(catalog::find(name.span(), name.name()), Some(*name));
        // Declared keys: sorted and unique, like an event's fields, and in
        // the same charset, so a key needs no escaping either.
        let keys = name.keys();
        for pair in keys.windows(2) {
            assert!(pair[0] < pair[1], "`{name}`: key `{}` then `{}`", pair[0], pair[1]);
        }
        assert!(keys.iter().all(|k| well_formed(k)), "`{name}` keys {keys:?}");
    }
    // `find` tells apart a span that is a prefix of another, and refuses a
    // pair whose joined text is an entry's but split elsewhere.
    for entry in [catalog::TRAIN_MLP_EPOCH, catalog::TRAIN_MLP_QUANTILE_EPOCH] {
        assert_eq!(catalog::find(entry.span(), "epoch"), Some(entry));
    }
    for (span, name) in [
        ("train.mlp", "quantile/epoch"),
        ("train", "mlp/epoch"),
        ("train.mlp/epoch", ""),
        ("sim", "steps"),
        ("si", "m/step"),
        ("", ""),
    ] {
        assert_eq!(catalog::find(span, name), None, "`{span}` / `{name}`");
    }
}

#[test]
fn every_entry_is_emitted_by_a_smoke_or_pinned_as_not() {
    let emitted: BTreeSet<&String> = backtest_smoke().union(&fleet_smoke().seen).collect();
    let pinned: BTreeSet<String> = NOT_IN_SMOKES.iter().map(EventName::to_string).collect();
    assert_eq!(pinned.len(), NOT_IN_SMOKES.len(), "NOT_IN_SMOKES repeats an entry");
    let mut problems = Vec::new();
    for name in catalog::ALL.iter().map(EventName::to_string) {
        match (emitted.contains(&name), pinned.contains(&name)) {
            (true, false) | (false, true) => {}
            (false, false) => problems.push(format!(
                "`{name}` is emitted by neither smoke and is not in NOT_IN_SMOKES: \
                 say where it comes from there, or delete the entry"
            )),
            (true, true) => {
                problems.push(format!("`{name}` is in NOT_IN_SMOKES but a smoke emits it"))
            }
        }
    }
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}
