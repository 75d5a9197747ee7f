//! Fleet supervision end-to-end: panic isolation, quarantine surfacing,
//! and deterministic checkpoint/restore.
//!
//! The contract under test is the strongest determinism claim in the
//! workspace: a supervised fleet killed at *any* tick and resumed from
//! its checkpoint produces byte-identical reports, sanitized traces, and
//! metric expositions to the run that never died — at any
//! `RPAS_THREADS`. As in `tests/fleet.rs`, every mutation of the
//! process-global `RPAS_THREADS` stays inside a single test function.

use rpas::core::checkpoint;
use rpas::core::{
    FleetConfig, FleetEngine, FleetReport, FleetSupervisor, ReplanSchedule, SupervisorConfig,
    TenantHealth,
};
use rpas::obs::{catalog, validate_line, MemorySink, Obs};
use rpas::simdb::{FaultConfig, Observation, PolicyHealth, ScalingPolicy};
use rpas::telemetry::{SloSpec, Telemetry};

fn fleet_cfg(tenants: usize) -> FleetConfig {
    let mut cfg = FleetConfig::new(tenants, 42);
    cfg.days = 2;
    cfg.capture_events = true;
    cfg.faults = Some(FaultConfig::heavy());
    cfg.slo = Some(SloSpec::violation_rate_default());
    cfg
}

fn supervised(cfg: &FleetConfig, tel: &Telemetry) -> FleetSupervisor {
    FleetSupervisor::wrap_with(
        FleetEngine::with_telemetry(cfg, tel),
        SupervisorConfig::default(),
        tel,
    )
}

fn reference_run(cfg: &FleetConfig) -> (FleetReport, String) {
    let tel = Telemetry::live();
    let mut sup = supervised(cfg, &tel);
    sup.run_to_completion();
    (sup.finish(), tel.snapshot().exposition())
}

/// Kill at a fixed tick, resume from the checkpoint text, and finish —
/// returning what the resumed process would report.
fn kill_and_resume(cfg: &FleetConfig, kill_at: u64) -> (FleetReport, String) {
    let tel = Telemetry::live();
    let mut sup = supervised(cfg, &tel);
    for _ in 0..kill_at {
        sup.tick();
    }
    let text = checkpoint::save(&sup, cfg, &tel).expect("checkpointable fleet");
    drop(sup); // the "crash": nothing survives but the checkpoint text

    let tel2 = Telemetry::live();
    let (mut resumed, _) = checkpoint::load(&text, &tel2, Obs::noop()).expect("valid checkpoint");
    resumed.run_to_completion();
    (resumed.finish(), tel2.snapshot().exposition())
}

#[test]
fn kill_resume_is_byte_identical_across_thread_counts() {
    let cfg = fleet_cfg(16);
    std::env::remove_var("RPAS_THREADS");
    let (reference, reference_expo) = reference_run(&cfg);

    // The killed run and the resumed run each pick their own worker
    // count; no combination may shift a byte.
    for threads in [Some("1"), Some("2"), None] {
        match threads {
            Some(n) => std::env::set_var("RPAS_THREADS", n),
            None => std::env::remove_var("RPAS_THREADS"),
        }
        let (report, expo) = kill_and_resume(&cfg, 117);
        assert_eq!(report, reference, "RPAS_THREADS={threads:?}");
        assert_eq!(expo, reference_expo, "metric exposition at RPAS_THREADS={threads:?}");
    }
    std::env::remove_var("RPAS_THREADS");
}

#[test]
fn checkpoint_restore_at_any_tick_reproduces_the_run() {
    // The full every-tick sweep of a 64-tenant fleet is a release-build
    // property (RPAS_CHECKPOINT_EVERY_TICK=1 runs it; scripts/verify.sh
    // exercises the CLI path); the default stride keeps tier-1 fast
    // while still sampling early, mid-run, replan-boundary and
    // nearly-done resume points.
    let stride: u64 = if std::env::var("RPAS_CHECKPOINT_EVERY_TICK").is_ok() { 1 } else { 47 };
    let cfg = fleet_cfg(64);
    let (reference, reference_expo) = reference_run(&cfg);

    // One advancing fleet, checkpointed as it goes — every saved text is
    // then resumed independently and must land on the same bytes.
    let tel = Telemetry::live();
    let mut sup = supervised(&cfg, &tel);
    let mut saved = Vec::new();
    loop {
        if sup.ticks_done().is_multiple_of(stride) || sup.is_done() {
            saved.push((sup.ticks_done(), checkpoint::save(&sup, &cfg, &tel).unwrap()));
        }
        if sup.is_done() {
            break;
        }
        sup.tick();
    }
    assert!(saved.len() >= 5, "expected several resume points, got {}", saved.len());

    for (tick, text) in &saved {
        let tel2 = Telemetry::live();
        let (mut resumed, _) =
            checkpoint::load(text, &tel2, Obs::noop()).unwrap_or_else(|e| {
                panic!("checkpoint at tick {tick} failed to load: {e}")
            });
        assert_eq!(resumed.ticks_done(), *tick);
        resumed.run_to_completion();
        assert_eq!(resumed.finish(), reference, "resume from tick {tick}");
        assert_eq!(
            tel2.snapshot().exposition(),
            reference_expo,
            "metric exposition after resume from tick {tick}"
        );
    }
}

/// A policy that panics on every decision — the poisoned tenant.
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
fn poisoned_tenant_is_isolated_quarantined_and_surfaced() {
    let cfg = fleet_cfg(16);
    let (clean, _) = reference_run(&cfg);

    // Same fleet, tenant 5 poisoned. Silence the panic hook while the
    // supervisor absorbs the injected panics.
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

    // Satellite guarantees: the quarantine is surfaced with reason and
    // last error, and the poisoned tenant's capture buffer was drained
    // into the sanitized trace rather than leaked.
    assert_eq!(report.quarantined.len(), 1);
    let q = &report.quarantined[0];
    assert_eq!(q.id.to_string(), "t0005");
    assert!(q.strikes >= 1, "repeated panics must escalate strikes");
    assert!(q.reason.contains("panic"), "reason: {}", q.reason);
    assert_eq!(q.last_error.as_deref(), Some("injected failure"));
    assert!(
        report
            .trace_lines
            .iter()
            .any(|l| l.contains("\"tenant\":\"t0005\"") && l.contains("\"event\":\"quarantine\"")),
        "quarantine events missing from the drained trace"
    );

    // Availability: the poisoned tenant blew its budget; siblings did not.
    let av = report.availability.as_ref().expect("supervised runs evaluate availability");
    assert!(!av.tenants[5].met);
    assert!(av.tenants.iter().enumerate().all(|(i, s)| s.met || i == 5));

    // Isolation: every sibling's summary is exactly what the clean run
    // produced — the poisoned tenant never perturbed them.
    for (i, (got, want)) in report.tenants.iter().zip(&clean.tenants).enumerate() {
        if i == 5 {
            continue;
        }
        assert_eq!(got, want, "sibling t{i:04} diverged from the clean run");
    }

    // Telemetry: the supervisor counters recorded the incident.
    let expo = tel.snapshot().exposition();
    assert!(expo.contains("supervisor.panics"), "missing panic counter:\n{expo}");
    assert!(expo.contains("supervisor.quarantines"), "missing quarantine counter:\n{expo}");
}

/// Each supervision fact reaches every path once: one event carrying
/// `tenant` in the sink of the fleet's handle, one line among the
/// tenant's captured ones, and, for a counted fact, its counter equal to
/// both.
#[test]
fn each_supervision_fact_reaches_the_fleet_sinks_and_the_capture_once() {
    let cfg = fleet_cfg(8);
    let tel = Telemetry::live();
    let mem = MemorySink::new();
    let mut engine =
        FleetEngine::with_telemetry(&cfg, &tel).with_obs(Obs::with_sink(Box::new(mem.clone())));
    engine.set_policy(5, Box::new(AlwaysPanics));
    let mut sup = FleetSupervisor::wrap_with(engine, SupervisorConfig::default(), &tel);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    sup.run_to_completion();
    std::panic::set_hook(hook);
    let report = sup.finish();
    let (shown, snapshot) = (mem.events(), tel.snapshot());
    let captured: Vec<_> =
        report.trace_lines.iter().map(|l| validate_line(l).expect("a schema-v1 line")).collect();
    let mut facts = 0;
    for name in catalog::ALL.iter().filter(|n| n.span() == "supervisor") {
        let sunk: Vec<_> = shown.iter().filter(|e| e.is(*name)).collect();
        assert!(
            sunk.iter().all(|e| e.get("tenant") == Some("t0005".into())),
            "{name} reached the sink without the poisoned tenant's id"
        );
        let kept = captured
            .iter()
            .filter(|l| (l.span.as_str(), l.event.as_str()) == (name.span(), name.name()))
            .inspect(|l| assert_eq!(l.fields["tenant"].as_str(), Some("t0005")))
            .count();
        assert_eq!(sunk.len(), kept, "{name}: sink against capture");
        if let Some(metric) = name.counter() {
            let counted = snapshot.counter_value(&format!("{metric}{{tenant=\"t0005\"}}"));
            assert_eq!(counted, Some(kept as u64), "{name}: counter against capture");
        }
        facts += kept;
    }
    let panics = shown.iter().filter(|e| e.is(catalog::SUPERVISOR_PANIC)).count();
    assert!(panics > 1 && facts > panics, "the poisoned tenant made too few facts: {facts}");
}

#[test]
fn checkpoints_from_quarantined_fleets_roundtrip() {
    // Quarantine state (strikes, backoff deadline, probation progress,
    // outage series) must survive a checkpoint, or a resumed fleet would
    // re-admit a poisoned tenant on a different schedule. Injected
    // policies cannot be serialized, so this uses a healthy fleet whose
    // guard state is forced through the save/load path structurally:
    // save mid-run, load, and re-save must agree byte-for-byte.
    let cfg = fleet_cfg(8);
    let tel = Telemetry::live();
    let mut sup = supervised(&cfg, &tel);
    for _ in 0..63 {
        sup.tick();
    }
    let a = checkpoint::save(&sup, &cfg, &tel).unwrap();
    let tel2 = Telemetry::live();
    let (resumed, _) = checkpoint::load(&a, &tel2, Obs::noop()).unwrap();
    let b = checkpoint::save(&resumed, &cfg, &tel2).unwrap();
    assert_eq!(a, b, "save → load → save must be the identity");
}

// ---------------------------------------------------------------------
// schema-v3 golden pin
// ---------------------------------------------------------------------

/// `tests/fixtures/checkpoint_v3.jsonl`: the fleet below, saved at tick
/// 57. Its header line is the schema-v2 fixture's header with the version
/// bumped, byte for byte; its digest is what replaying that header gives
/// on this build and host libm.
const GOLDEN: &str = include_str!("fixtures/checkpoint_v3.jsonl");

fn golden_cfg() -> FleetConfig {
    let mut cfg = FleetConfig::new(4, 42);
    cfg.days = 1;
    cfg.schedule = ReplanSchedule { context: 48, horizon: 24 };
    cfg.resilience.naive_period = 24;
    cfg.capture_events = true;
    cfg.faults = Some(FaultConfig::heavy());
    cfg.slo = Some(SloSpec::violation_rate_default());
    cfg
}

#[test]
fn golden_v3_checkpoint_is_written_byte_for_byte_and_resumes() {
    assert!(GOLDEN.len() < 2048, "{} bytes", GOLDEN.len());
    let cfg = golden_cfg();
    let tel = Telemetry::live();
    let mut uninterrupted = supervised(&cfg, &tel);
    for _ in 0..57 {
        uninterrupted.tick();
    }
    let saved = checkpoint::save(&uninterrupted, &cfg, &tel).unwrap();
    assert!(
        saved == GOLDEN,
        "schema-v3 text moved; first difference at byte {:?}",
        saved.bytes().zip(GOLDEN.bytes()).position(|(a, b)| a != b)
    );
    uninterrupted.run_to_completion();
    let reference = (uninterrupted.finish(), tel.snapshot().exposition());

    // The committed file alone resumes to the same report and exposition.
    let tel = Telemetry::live();
    let (mut resumed, loaded_cfg) = checkpoint::load(GOLDEN, &tel, Obs::noop()).unwrap();
    assert_eq!(format!("{loaded_cfg:?}"), format!("{cfg:?}"));
    assert_eq!(resumed.ticks_done(), 57);
    assert!(checkpoint::save(&resumed, &cfg, &tel).unwrap() == GOLDEN);
    resumed.run_to_completion();
    assert_eq!((resumed.finish(), tel.snapshot().exposition()), reference);
}

#[test]
fn checkpoint_truncated_at_any_byte_errors_or_loads_the_same_state() {
    // ROADMAP item 4: a torn write must never panic the loader or load
    // as a different fleet. Capture is off and the kill is early so the
    // text stays a few KB and the sweep can afford every offset.
    let mut cfg = fleet_cfg(3);
    cfg.days = 1;
    cfg.capture_events = false;
    let tel = Telemetry::live();
    let mut sup = supervised(&cfg, &tel);
    for _ in 0..5 {
        sup.tick();
    }
    let text = checkpoint::save(&sup, &cfg, &tel).unwrap();
    assert!(text.is_ascii() && text.len() < 16 * 1024, "{} bytes", text.len());

    let mut loaded = 0;
    for cut in 0..text.len() {
        let tel2 = Telemetry::live();
        if let Ok((resumed, _)) = checkpoint::load(&text[..cut], &tel2, Obs::noop()) {
            // Only the trailing newline is optional.
            assert_eq!(cut, text.len() - 1, "a checkpoint cut at byte {cut} loaded");
            assert!(checkpoint::save(&resumed, &cfg, &tel2).unwrap() == text);
            loaded += 1;
        }
    }
    assert_eq!(loaded, 1);
}

/// The golden checkpoint with one header value swapped: well-formed
/// text whose configuration no fleet can be built from.
fn load_doctored_header(from: &str, to: &str) -> Result<(), String> {
    let (header, rest) = GOLDEN.split_once('\n').expect("header line, then the digest");
    assert_eq!(header.matches(from).count(), 1, "{from} must name one header value");
    let text = format!("{}\n{rest}", header.replacen(from, to, 1));
    checkpoint::load(&text, &Telemetry::live(), Obs::noop()).map(|_| ())
}

#[test]
fn checkpoint_with_zero_tenants_is_an_error_not_a_panic() {
    let err = load_doctored_header("\"tenants\":\"u:4\"", "\"tenants\":\"u:0\"").unwrap_err();
    assert!(err.contains("header.config") && err.contains("at least one tenant"), "{err}");
}

#[test]
fn checkpoint_with_zero_failure_window_is_an_error_not_a_panic() {
    let err =
        load_doctored_header("\"failure_window\":\"u:8\"", "\"failure_window\":\"u:0\"").unwrap_err();
    assert!(err.contains("header.supervisor") && err.contains("failure_window"), "{err}");
}
