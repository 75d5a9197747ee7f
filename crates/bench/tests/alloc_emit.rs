//! Allocation budget of emitting one event, and of rendering the
//! captured ones.
//!
//! A captured event used to cost ~16 allocations: two `String`s for the
//! span and name, a `String` and a map node per field, and the whole lot
//! deep-cloned into the sink. Then it was one record of words, built in
//! place: one allocation. Now the record is built where it is kept: on a
//! capture's tape (which grows by doubling, so nothing per event), or on
//! a handle's scratch tape, which its sinks read and which is emptied
//! after. Names come from the catalogue entry, keys are slots in it,
//! label-like values are interned literals; what is left is one
//! allocation per *computed* string value, at its emit site. With nothing
//! listening, emitting and resolving metrics allocate nothing, and a
//! resolved live counter or histogram records without allocating.
//!
//! The two audits a fleet captures every tick are measured at their real
//! emit sites, as the allocations a run makes with a capture handle
//! beyond the same run with a dark one. Rendering waits for `finish`.
//!
//! At the other end, `FleetSupervisor::finish` renders every captured
//! record once into a reused buffer, nothing per field (numbers are
//! written into the buffer, no `String` per value), and copies it into
//! one exact-size line, plus a fixed handful per tenant. That is pinned
//! as a shape at two fleet lengths.
//!
//! Kept to a single `#[test]` in its own binary: the counting allocator
//! observes the whole process (see `alloc_ratchet.rs`).

use rpas_bench::alloc;
use rpas_core::{
    FleetConfig, FleetEngine, FleetSupervisor, ReplanSchedule, RobustAutoScalingManager,
    ScalingStrategy, SupervisorConfig,
};
use rpas_forecast::QuantileForecast;
use rpas_obs::{catalog, json, validate_line, MemorySink, Obs, TraceLine};
use rpas_simdb::{FaultConfig, Observation, ScalingPolicy, SimConfig, SimSession};
use rpas_telemetry::{SloSpec, Telemetry};
use rpas_traces::Trace;
use rpas_tsmath::Matrix;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const STEPS: usize = 64;

/// Tenants of the fleet whose `finish` is counted.
const TENANTS: u64 = 8;
/// What `finish` may allocate per tenant beyond one line per captured
/// event: its label, violation flags and SLO series, the session report,
/// the growth of its render buffer and of the fleet-wide vectors
/// (measured 37 at two days, 39 at four).
const FINISH_PER_TENANT: u64 = 44;

struct Hold;

impl ScalingPolicy for Hold {
    fn name(&self) -> &'static str {
        "hold"
    }
    fn decide(&mut self, obs: &Observation<'_>) -> u32 {
        obs.min_nodes
    }
}

/// Every event `capture` holds, rendered and read back. Its tape doubles
/// as records come, so of five repeats of 64 or 65 events into one
/// capture one grows it not at all, and the smallest count is that
/// repeat's.
fn captured(capture: &Obs) -> Vec<TraceLine> {
    let mut lines = Vec::new();
    capture.append_captured(&mut lines);
    lines.iter().map(|l| validate_line(l).expect("a trace line")).collect()
}

/// The smallest count of a few repeats: the counters are process-wide and
/// libtest's main thread allocates now and then, which only ever adds.
fn cost(mut f: impl FnMut()) -> u64 {
    (0..5).map(|_| alloc::measure(&mut f).1.allocs).min().expect("five repeats")
}

/// Allocations of stepping a session to its end, set-up excluded.
fn stepping(trace: &Trace, obs: &Obs) -> u64 {
    (0..5)
        .map(|_| {
            let mut session = SimSession::new(trace, SimConfig::default()).with_obs(obs.clone());
            alloc::measure(|| while session.step(&mut Hold) {}).1.allocs
        })
        .min()
        .expect("five repeats")
}

#[test]
fn an_emitted_event_allocates_nothing_once_its_tape_has_room() {
    assert!(alloc::installed(), "counting allocator must route this binary's allocations");

    // Nothing listening: emit, span open and span close are free, and so
    // are resolving and recording metrics in a dark registry. A live
    // registry's metrics, once resolved, count and record for free.
    let dark = Obs::noop();
    let dark_cost = cost(|| {
        dark.emit(catalog::SIM_STEP, |e| {
            e.field("step", 1u64).field("policy", "computed".to_string());
        });
        dark.span(catalog::BACKTEST_SPAN_CLOSE, "fit").finish(|e| {
            e.field("model", "tft");
        });
        drop(dark.span(catalog::BACKTEST_SPAN_CLOSE, "rolling"));
    });
    let (labels, bounds) = ([("tenant", "t0")], [0.5, 1.0, 2.0]);
    let dark_tel = Telemetry::noop();
    let dark_metrics = cost(|| {
        dark_tel.counter("sim.steps", &labels).inc(1);
        dark_tel.histogram("sim.utilization_ratio", &labels, &bounds).record(0.7);
    });
    let live = Telemetry::live();
    let counter = live.counter("sim.steps", &labels);
    let hist = live.histogram("sim.utilization_ratio", &labels, &bounds);
    let live_metrics = cost(|| {
        for i in 0..1000 {
            counter.inc(1);
            hist.record(f64::from(i) / 400.0);
        }
    });
    assert_eq!(
        (dark_cost, dark_metrics, live_metrics),
        (0, 0, 0),
        "allocations: dark handle, dark registry, resolved live metrics"
    );

    // `sim/step`: five scalar fields, once per tenant per tick.
    let trace = Trace::new("ramp", 600, (0..STEPS).map(|t| 50.0 + t as f64).collect());
    let capture = Obs::capture("t0000".to_string());
    let lit = stepping(&trace, &capture);
    let events = captured(&capture);
    assert_eq!(events.len(), 5 * STEPS, "one sim/step per step of each repeat");
    assert!(events.iter().all(|e| e.is(catalog::SIM_STEP) && e.fields.len() == 5 + 1));
    drop(events);
    let dark = stepping(&trace, &Obs::noop());
    assert_eq!(lit, dark, "{STEPS} captured sim/steps allocated beyond the dark run");

    // `plan/decision` as the fleet's fixed-τ policies emit it: three
    // scalars and the strategy label, a literal. The 7-field
    // `plan/summary` that closes a plan allocates nothing either.
    let forecast = QuantileForecast::new(
        vec![0.1, 0.5, 0.9],
        Matrix::from_rows(&vec![vec![90.0, 100.0, 130.0]; STEPS]),
    )
    .expect("finite cells");
    let manager = RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau: 0.9 });
    let capture = Obs::capture("t0000".to_string());
    let audited = manager.clone().with_obs(capture.clone());
    let lit = cost(|| drop(audited.plan(&forecast)));
    let events = captured(&capture);
    assert_eq!(events.iter().filter(|e| e.is(catalog::PLAN_DECISION)).count(), 5 * STEPS);
    assert_eq!(events.iter().filter(|e| e.is(catalog::PLAN_SUMMARY)).count(), 5);
    drop(events);
    let dark = cost(|| drop(manager.plan(&forecast)));
    assert_eq!(lit, dark, "{STEPS} captured plan/decision and a plan/summary allocated");

    // Two sinks: the record is built once, on the handle's scratch tape,
    // and each memory sink appends a copy to a tape of its own. Once the
    // tapes have room, nothing allocates.
    let (first, last) = (MemorySink::new(), MemorySink::new());
    let both = Obs::multi(vec![Box::new(first.clone()), Box::new(last.clone())]);
    let fan_out = cost(|| {
        both.emit(catalog::SIM_STEP, |e| {
            e.field("step", 1u64).field("violation", false);
        });
    });
    assert_eq!((first.len(), last.len()), (5, 5));
    assert_eq!(fan_out, 0, "one build on the scratch tape, a copy on each sink's");

    // A number is written into the caller's buffer, the 301 digits of
    // 1e300 and the 323 zeros of 5e-324 included.
    let mut out = String::with_capacity(1024);
    let numbers = cost(|| {
        for x in [0.95, -1.5e-7, 102.69192879067386, 3.0, 1e300, 5e-324, f64::NAN] {
            out.clear();
            json::write_f64(&mut out, x);
            json::write_u64(&mut out, u64::MAX);
        }
    });
    assert_eq!(numbers, 0, "writing a number allocated");

    // `finish` on a capturing fleet: one allocation per rendered line,
    // plus the per-tenant constant, at two lengths.
    let mut lines_at = Vec::new();
    for days in [2, 4] {
        let mut cfg = FleetConfig::new(TENANTS as usize, 11);
        cfg.days = days;
        cfg.schedule = ReplanSchedule { context: 48, horizon: 24 };
        cfg.capture_events = true;
        cfg.faults = Some(FaultConfig::light());
        cfg.slo = Some(SloSpec::violation_rate_default());
        let (allocs, lines) = (0..3)
            .map(|_| {
                let tel = Telemetry::live();
                let engine = FleetEngine::with_telemetry(&cfg, &tel);
                let mut sup = FleetSupervisor::wrap_with(engine, SupervisorConfig::default(), &tel);
                sup.run_to_completion();
                let (report, stats) = alloc::measure(|| sup.finish());
                (stats.allocs, report.trace_lines.len() as u64)
            })
            .min()
            .expect("three repeats");
        let ceiling = lines + FINISH_PER_TENANT * TENANTS;
        assert!(
            allocs <= ceiling,
            "{days} days: finish allocated {allocs} times for {lines} lines (ceiling {ceiling})"
        );
        lines_at.push(lines);
    }
    // The two lengths really are different problem sizes.
    assert!(lines_at[1] > 3 * lines_at[0] / 2, "{lines_at:?}");
}
