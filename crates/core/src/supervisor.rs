//! The fleet supervisor: panic isolation and tenant quarantine.
//!
//! [`crate::fleet::FleetEngine`] assumes every tenant policy is
//! well-behaved; one panicking `decide` would unwind through the worker
//! pool and take the whole control plane down. [`FleetSupervisor`] wraps
//! the engine in a supervision tree: every tenant tick runs inside
//! `catch_unwind` on the engine's persistent `rpas-par` worker pool, a
//! panic is converted into one `supervisor/panic` record (the counter
//! its catalogue entry declares, the fleet event and the tenant's
//! captured copy), and a per-tenant circuit breaker quarantines tenants
//! that keep failing.
//!
//! Quarantine state machine (per tenant):
//!
//! ```text
//!            N panics in window W          backoff expires
//!  Healthy ───────────────────────▶ Quarantined ─────────▶ Probation
//!     ▲                                  ▲                     │
//!     │   probation_ticks clean ticks    │   any panic         │
//!     └──────────────────────────────────┴─────────────────────┘
//! ```
//!
//! Each re-quarantine doubles the backoff (capped), so a tenant that
//! panics on every tick converges to long quarantine stretches and stops
//! wasting pool slots, while a tenant with a transient fault re-admits
//! quickly. Siblings never notice either way: the supervised fleet's
//! outputs for healthy tenants are byte-identical to a run where the
//! poisoned tenant never panicked at all (panics are caught *inside* the
//! worker closure, so pool locks are never poisoned and tenant order is
//! preserved).
//!
//! A supervised run is bounded: it lasts exactly as many ticks as the
//! longest tenant trace, so an always-failing tenant ends scored on its
//! executed prefix instead of livelocking the fleet.

use crate::fleet::{FleetEngine, FleetReport, QuarantineRecord, TenantId, TenantRun};
use rpas_obs::{catalog, Event, Obs};
use rpas_par::panic_message;
use rpas_telemetry::{RatioSeries, SloReport, SloSpec, Telemetry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Circuit-breaker tuning for [`FleetSupervisor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Panics within [`SupervisorConfig::failure_window`] that open the
    /// breaker.
    pub failure_threshold: usize,
    /// Sliding window (ticks) over which failures are counted.
    pub failure_window: u64,
    /// Quarantine length (ticks) for the first offence.
    pub base_backoff_ticks: u64,
    /// Backoff doubles per re-quarantine up to this cap.
    pub max_backoff_ticks: u64,
    /// Clean ticks on probation before a tenant is healthy again.
    pub probation_ticks: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            failure_window: 8,
            base_backoff_ticks: 8,
            max_backoff_ticks: 256,
            probation_ticks: 4,
        }
    }
}

impl SupervisorConfig {
    /// Whether the breaker can run on this tuning; the checkpoint loader
    /// reports the `Err`, [`FleetSupervisor::wrap_with`] panics on it.
    pub(crate) fn validate(&self) -> Result<(), String> {
        crate::first_failure(&[
            (self.failure_threshold > 0, "failure_threshold must be positive"),
            (self.failure_window > 0, "failure_window must be positive"),
            (self.base_backoff_ticks > 0, "base_backoff_ticks must be positive"),
            (
                self.max_backoff_ticks >= self.base_backoff_ticks,
                "max_backoff_ticks must be at least base_backoff_ticks",
            ),
            (self.probation_ticks > 0, "probation_ticks must be positive"),
        ])
    }
}

/// Supervision state of one tenant.
#[derive(Debug, Clone, PartialEq)]
pub enum TenantHealth {
    /// Ticking normally.
    Healthy,
    /// Circuit breaker open: the tenant is skipped until `until_tick`.
    Quarantined {
        /// First tick at which the tenant is re-admitted (on probation).
        until_tick: u64,
        /// Why the breaker opened. `Arc<str>` so re-quarantines and the
        /// final [`QuarantineRecord`] share one allocation instead of
        /// cloning the string on the tick path.
        reason: Arc<str>,
    },
    /// Re-admitted after quarantine; one panic re-opens the breaker
    /// immediately, `probation_ticks` clean ticks restore full health.
    Probation {
        /// Clean ticks accumulated so far.
        clean_ticks: u64,
    },
}

/// Per-tenant circuit-breaker bookkeeping.
pub(crate) struct TenantGuard {
    pub(crate) health: TenantHealth,
    /// Ticks of recent panics, pruned to the sliding window.
    pub(crate) failures: Vec<u64>,
    /// Quarantines so far (drives the exponential backoff).
    pub(crate) strikes: u32,
    /// Most recent panic message (shared with the quarantine record, so
    /// the steady-state loop never clones it).
    pub(crate) last_error: Option<Arc<str>>,
    /// One flag per supervised tick while the tenant was unfinished:
    /// `true` when the tick was lost (skipped in quarantine, or panicked).
    /// Feeds the fleet-availability SLO.
    pub(crate) outage: Vec<bool>,
}

impl TenantGuard {
    /// Fresh guard with its outage series pre-reserved for the whole
    /// run, so the supervised tick loop never reallocates it.
    pub(crate) fn new(total_ticks: u64) -> Self {
        Self {
            health: TenantHealth::Healthy,
            failures: Vec::new(),
            strikes: 0,
            last_error: None,
            outage: Vec::with_capacity(total_ticks as usize),
        }
    }

    /// Tenant `id`'s record for the fleet report, if its breaker is open.
    pub(crate) fn quarantine_record(&self, id: TenantId) -> Option<QuarantineRecord> {
        match &self.health {
            TenantHealth::Quarantined { until_tick, reason } => Some(QuarantineRecord {
                id,
                reason: reason.to_string(),
                last_error: self.last_error.as_ref().map(|s| s.to_string()),
                strikes: self.strikes,
                until_tick: *until_tick,
            }),
            _ => None,
        }
    }
}

/// Panic isolation + tenant quarantine around a [`FleetEngine`]. Build
/// the engine first (its construction is panic-free by contract), then
/// wrap it; drive with [`FleetSupervisor::tick`] or
/// [`FleetSupervisor::run_to_completion`] and collect the report with
/// [`FleetSupervisor::finish`].
pub struct FleetSupervisor {
    pub(crate) engine: FleetEngine,
    pub(crate) cfg: SupervisorConfig,
    /// Next supervised tick (0-based; also the count of ticks executed).
    pub(crate) tick: u64,
    /// Total supervised ticks: the longest tenant trace length.
    pub(crate) total_ticks: u64,
}

/// Record one supervision fact: its counter and an event carrying
/// `tenant` on the fleet's handle (the run's `rec`), then the same event
/// on the tenant's capture, whose lines carry its label as `tenant`.
fn record(run: &TenantRun, name: catalog::EventName, build: impl Fn(&mut Event)) {
    run.rec.emit(name, |e| {
        e.field("tenant", run.id.to_string());
        build(e);
    });
    if let Some(capture) = &run.capture {
        capture.emit(name, build);
    }
}

impl FleetSupervisor {
    /// Wrap an engine with the default [`SupervisorConfig`].
    pub fn wrap(engine: FleetEngine) -> Self {
        Self::wrap_with(engine, SupervisorConfig::default(), &Telemetry::noop())
    }

    /// Wrap an engine with explicit tuning: arm every tenant's circuit
    /// breaker, and its counters the `supervisor/*` catalogue entries
    /// declare, which record into `tel` under a `tenant="tNNNN"` label.
    ///
    /// # Panics
    /// Panics on a degenerate config.
    pub fn wrap_with(mut engine: FleetEngine, cfg: SupervisorConfig, tel: &Telemetry) -> Self {
        assert_eq!(cfg.validate(), Ok(()), "invalid supervisor config");
        let total_ticks =
            engine.runs.iter().map(|run| run.session.len() as u64).max().unwrap_or(0);
        for run in &mut engine.runs {
            run.guard = TenantGuard::new(total_ticks);
            run.rec.set_obs(engine.obs.clone());
            let tenant = run.id.to_string();
            run.rec.resolve(tel, &[("tenant", &tenant)], &[catalog::SUPERVISOR_PANIC.span()]);
        }
        Self { engine, cfg, tick: 0, total_ticks }
    }

    /// Supervised ticks executed so far.
    pub fn ticks_done(&self) -> u64 {
        self.tick
    }

    /// Total ticks a full supervised run executes (the longest tenant
    /// trace; the bound that keeps an always-failing tenant from
    /// livelocking the fleet).
    pub fn total_ticks(&self) -> u64 {
        self.total_ticks
    }

    /// A tenant's current supervision state.
    pub fn health(&self, tenant: usize) -> &TenantHealth {
        &self.engine.runs[tenant].guard.health
    }

    /// Whether the supervised run has executed every tick.
    pub fn is_done(&self) -> bool {
        self.tick >= self.total_ticks
    }

    /// Advance the fleet by one supervised tick: re-admit tenants whose
    /// quarantine expired, step every eligible tenant with panic
    /// isolation, then feed the circuit breakers in tenant order.
    /// Returns the number of tenants that completed a clean step
    /// (0 does *not* mean the run is over — a tick can be all-quarantine;
    /// check [`FleetSupervisor::is_done`]).
    pub fn tick(&mut self) -> usize {
        if self.is_done() {
            return 0;
        }
        let tick = self.tick;
        let stepped = self.run_range(tick, tick + 1);
        self.tick = tick + 1;
        stepped
    }

    /// Drive the supervised run to its bound (the longest tenant trace).
    ///
    /// Unlike repeated [`FleetSupervisor::tick`] calls this fans out
    /// *once*: each worker drives one tenant across the whole remaining
    /// range. The two are byte-identical because a tenant's supervision
    /// state depends only on its own history.
    pub fn run_to_completion(&mut self) {
        let (from, to) = (self.tick, self.total_ticks);
        if from >= to {
            return;
        }
        self.run_range(from, to);
        self.tick = to;
    }

    /// Route the fleet-level events (`supervisor/*`, and `slo/*` at
    /// [`FleetSupervisor::finish`]) to `obs`; the checkpoint loader
    /// attaches the caller's handle once its replay is done.
    pub(crate) fn set_obs(&mut self, obs: Obs) {
        for run in &mut self.engine.runs {
            run.rec.set_obs(obs.clone());
        }
        self.engine.obs = obs;
    }

    /// Supervise every tenant over ticks `[from, to)` on the engine's
    /// persistent worker pool. Returns the number of clean steps.
    ///
    /// The per-tenant state machine (session cursor, circuit breaker,
    /// outage series, capture) has no cross-tenant coupling, so
    /// tick-major and tenant-major iteration produce identical bytes;
    /// tenant-major needs one pool fan-out per call instead of one per
    /// tick. The only cross-tenant artifact is the interleaving of
    /// fleet-level events, which was already worker-order dependent and
    /// is never byte-compared.
    pub(crate) fn run_range(&mut self, from: u64, to: u64) -> usize {
        let cfg = self.cfg;
        let stepped = std::sync::atomic::AtomicUsize::new(0);
        self.engine.pool.for_each_mut(&mut self.engine.runs, |_, run| {
            let n = supervise_tenant_range(&cfg, run, from, to);
            if n > 0 {
                // Contended-cache write only when work happened, so a
                // drained tenant's ticks stay read-only.
                stepped.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
            }
        });
        stepped.into_inner()
    }

    /// Finish the supervised run: evaluate the fleet-availability SLO
    /// over the per-tenant outage series, collect the still-quarantined
    /// tenants, and aggregate the fleet report (every tenant's capture,
    /// quarantined tenants' included).
    pub fn finish(self) -> FleetReport {
        // One outage series alive at a time: each is built when the
        // evaluation asks for it and dropped once merged.
        let subjects = self.engine.runs.iter().map(|run| {
            (run.id.to_string(), RatioSeries::from_bools(&run.guard.outage))
        });
        let availability = SloReport::evaluate(
            &SloSpec::fleet_availability_default(),
            subjects,
            &self.engine.obs,
        );
        self.engine.finish_supervised(Some(availability))
    }
}

/// Drive one tenant through supervised ticks `[from, to)`: re-admit on
/// quarantine expiry, step with panic isolation, feed the circuit
/// breaker, and record the outage flag. Returns the clean-step count.
///
/// Steady state (healthy tenant, no panic) allocates nothing: the
/// outage series is pre-reserved, `catch_unwind` is free on the happy
/// path, and event/reason strings are built only on supervision
/// transitions.
///
/// A tenant whose trace is done and whose breaker is closed can never
/// emit another event or outage flag, so the loop exits early instead
/// of idling through the rest of the fleet bound.
fn supervise_tenant_range(cfg: &SupervisorConfig, run: &mut TenantRun, from: u64, to: u64) -> usize {
    let mut stepped = 0;
    for tick in from..to {
        admit_expired(run, tick);
        let unfinished = !run.is_done();
        let eligible =
            unfinished && !matches!(run.guard.health, TenantHealth::Quarantined { .. });
        let mut panicked = false;
        if eligible {
            match catch_unwind(AssertUnwindSafe(|| {
                run.session.step(run.policy.as_dyn_mut())
            })) {
                Ok(advanced) => {
                    if advanced {
                        stepped += 1;
                    }
                    on_clean_tick(cfg, run, tick);
                }
                Err(payload) => {
                    panicked = true;
                    on_panic(cfg, run, tick, panic_message(payload));
                }
            }
        }
        if unfinished {
            run.guard.outage.push(!eligible || panicked);
        } else if !matches!(run.guard.health, TenantHealth::Quarantined { .. }) {
            break;
        }
    }
    stepped
}

/// Quarantine expiry: re-admit on probation.
fn admit_expired(run: &mut TenantRun, tick: u64) {
    if let TenantHealth::Quarantined { until_tick, .. } = &run.guard.health {
        if tick >= *until_tick {
            run.guard.health = TenantHealth::Probation { clean_ticks: 0 };
            run.guard.failures.clear();
            record(run, catalog::SUPERVISOR_RESTORE, |e| {
                e.field("tick", tick);
            });
        }
    }
}

fn on_panic(cfg: &SupervisorConfig, run: &mut TenantRun, tick: u64, message: String) {
    record(run, catalog::SUPERVISOR_PANIC, |e| {
        e.field("tick", tick).field("error", message.clone());
    });

    let guard = &mut run.guard;
    guard.failures.retain(|&t| tick - t < cfg.failure_window);
    guard.failures.push(tick);
    guard.last_error = Some(Arc::from(message));

    let reason: Option<Arc<str>> = match guard.health {
        // One panic on probation re-opens the breaker immediately.
        TenantHealth::Probation { .. } => Some(Arc::from("panic on probation")),
        TenantHealth::Healthy if guard.failures.len() >= cfg.failure_threshold => {
            Some(Arc::from(format!(
                "{} panics in {} ticks",
                guard.failures.len(),
                cfg.failure_window
            )))
        }
        _ => None,
    };
    if let Some(reason) = reason {
        quarantine(cfg, run, tick, reason);
    }
}

fn quarantine(cfg: &SupervisorConfig, run: &mut TenantRun, tick: u64, reason: Arc<str>) {
    let guard = &mut run.guard;
    guard.strikes += 1;
    let exponent = u32::min(guard.strikes - 1, 32);
    let backoff = cfg
        .base_backoff_ticks
        .saturating_mul(1u64 << exponent.min(62))
        .min(cfg.max_backoff_ticks);
    let until_tick = tick + 1 + backoff;
    guard.health =
        TenantHealth::Quarantined { until_tick, reason: Arc::clone(&reason) };
    guard.failures.clear();
    let strikes = guard.strikes;
    record(run, catalog::SUPERVISOR_QUARANTINE, |e| {
        e.field("tick", tick)
            .field("until_tick", until_tick)
            .field("strikes", u64::from(strikes))
            .field("reason", reason.to_string());
    });
}

fn on_clean_tick(cfg: &SupervisorConfig, run: &mut TenantRun, tick: u64) {
    if let TenantHealth::Probation { clean_ticks } = &mut run.guard.health {
        *clean_ticks += 1;
        if *clean_ticks >= cfg.probation_ticks {
            run.guard.health = TenantHealth::Healthy;
            record(run, catalog::SUPERVISOR_HEALTHY, |e| {
                e.field("tick", tick);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetConfig;
    use rpas_simdb::{Observation, ScalingPolicy};

    /// Policy that panics on its first `remaining` invocations, then
    /// behaves. (A panicked step never advances the session cursor, so a
    /// transient fault must be keyed on invocations, not steps.)
    struct PanicsFirst {
        remaining: usize,
    }

    impl ScalingPolicy for PanicsFirst {
        fn name(&self) -> &'static str {
            "panics-first"
        }
        fn decide(&mut self, obs: &Observation<'_>) -> u32 {
            if self.remaining > 0 {
                self.remaining -= 1;
                panic!("injected panic at step {}", obs.step);
            }
            2
        }
    }

    /// Policy that panics on every invocation.
    struct AlwaysPanics;

    impl ScalingPolicy for AlwaysPanics {
        fn name(&self) -> &'static str {
            "always-panics"
        }
        fn decide(&mut self, obs: &Observation<'_>) -> u32 {
            panic!("injected panic at step {}", obs.step);
        }
    }

    fn small_cfg() -> FleetConfig {
        let mut cfg = FleetConfig::new(4, 7);
        cfg.days = 2;
        cfg.schedule = crate::autoscaler::ReplanSchedule { context: 48, horizon: 24 };
        cfg
    }

    /// Run the intentionally-panicking closure with the default panic
    /// hook silenced, so test output stays clean.
    fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn healthy_fleet_matches_unsupervised_run() {
        let mut cfg = small_cfg();
        cfg.capture_events = true;
        let mut plain = FleetEngine::new(&cfg);
        plain.run_to_completion();
        let expected = plain.finish();

        let mut sup = FleetSupervisor::wrap(FleetEngine::new(&cfg));
        assert_eq!(sup.total_ticks(), 2 * 144);
        sup.run_to_completion();
        let report = sup.finish();

        assert_eq!(report.tenants, expected.tenants);
        assert_eq!(report.qos, expected.qos);
        assert_eq!(report.trace_lines, expected.trace_lines);
        assert!(report.quarantined.is_empty());
        let avail = report.availability.expect("supervised runs evaluate availability");
        assert!(avail.fleet.met);
        assert_eq!(avail.fleet.bad, 0);
        assert_eq!(avail.fleet.total, 4 * 2 * 144);
    }

    #[test]
    fn poisoned_tenant_is_quarantined_with_exponential_backoff() {
        let cfg = small_cfg();
        let mut engine = FleetEngine::new(&cfg);
        // Tenant 1 panics on every decision step.
        engine.set_policy(1, Box::new(AlwaysPanics));
        let tel = Telemetry::live();
        let sup_cfg = SupervisorConfig::default();
        let mut sup = FleetSupervisor::wrap_with(engine, sup_cfg, &tel);
        quiet_panics(|| sup.run_to_completion());

        assert!(matches!(sup.health(1), TenantHealth::Quarantined { .. }));
        let report = sup.finish();
        assert_eq!(report.quarantined.len(), 1);
        let q = &report.quarantined[0];
        assert_eq!(q.id.0, 1);
        assert!(q.strikes > 1, "re-quarantined after every probation ({} strikes)", q.strikes);
        assert!(q.last_error.as_deref().unwrap().contains("injected panic"));

        // Exponential backoff: strikes stay far below what a fixed
        // backoff would produce over the run.
        let ticks = sup_cfg.base_backoff_ticks as f64;
        assert!(
            f64::from(q.strikes) < (2.0 * 144.0) / ticks,
            "backoff must grow: {} strikes",
            q.strikes
        );

        // Counters add up: every quarantine was preceded by panics, and
        // every restore re-admitted a quarantined tenant.
        let snap = tel.snapshot();
        let val = |m: &str| {
            snap.counter_value(&format!("{m}{{tenant=\"t0001\"}}")).unwrap_or(0)
        };
        assert!(val("supervisor.panics") >= 3);
        assert_eq!(val("supervisor.quarantines"), u64::from(q.strikes));
        assert_eq!(val("supervisor.restores"), u64::from(q.strikes) - 1);

        // The poisoned tenant burned its availability budget; siblings
        // did not.
        let avail = report.availability.expect("availability evaluated");
        assert!(!avail.tenants[1].met);
        assert!(avail.tenants[0].met && avail.tenants[2].met && avail.tenants[3].met);
    }

    #[test]
    fn transient_panic_recovers_through_probation() {
        let cfg = small_cfg();
        let mut engine = FleetEngine::new(&cfg);
        // Three panics in a row opens the breaker once; afterwards clean.
        engine.set_policy(2, Box::new(PanicsFirst { remaining: 3 }));
        let mut sup = FleetSupervisor::wrap(engine);
        quiet_panics(|| sup.run_to_completion());
        assert_eq!(*sup.health(2), TenantHealth::Healthy);
        let report = sup.finish();
        assert!(report.quarantined.is_empty());
        // The tenant lost its quarantine window but still executed the
        // rest of its trace.
        let lost = 3 + SupervisorConfig::default().base_backoff_ticks as usize;
        assert_eq!(report.qos.total_steps, 4 * 2 * 144 - lost as u64);
    }

    #[test]
    fn sibling_outputs_are_unperturbed_by_a_poisoned_tenant() {
        let mut cfg = small_cfg();
        cfg.capture_events = true;

        // Reference: supervised run where nobody panics.
        let mut clean = FleetSupervisor::wrap(FleetEngine::new(&cfg));
        clean.run_to_completion();
        let clean_report = clean.finish();

        // Poisoned: tenant 0 panics every tick.
        let mut engine = FleetEngine::new(&cfg);
        engine.set_policy(0, Box::new(AlwaysPanics));
        let mut sup = FleetSupervisor::wrap(engine);
        quiet_panics(|| sup.run_to_completion());
        let poisoned_report = sup.finish();

        // Siblings' summaries are identical.
        assert_eq!(clean_report.tenants[1..], poisoned_report.tenants[1..]);
        // Siblings' trace events are identical once the global seq
        // renumbering (shifted by tenant 0's extra supervisor events) is
        // factored out.
        let sibling_lines = |report: &FleetReport| -> Vec<String> {
            report
                .trace_lines
                .iter()
                .filter(|l| !l.contains("\"tenant\":\"t0000\""))
                .map(|l| {
                    let cut = l.find("\"level\"").expect("schema-v1 line");
                    l[cut..].to_string()
                })
                .collect()
        };
        assert_eq!(sibling_lines(&clean_report), sibling_lines(&poisoned_report));
    }

    #[test]
    fn supervised_run_is_thread_invariant() {
        let mut cfg = small_cfg();
        cfg.capture_events = true;
        let run = |threads: &str| {
            std::env::set_var("RPAS_THREADS", threads);
            let mut engine = FleetEngine::new(&cfg);
            engine.set_policy(3, Box::new(PanicsFirst { remaining: 50 }));
            let mut sup = FleetSupervisor::wrap(engine);
            quiet_panics(|| sup.run_to_completion());
            let report = sup.finish();
            std::env::remove_var("RPAS_THREADS");
            report
        };
        assert_eq!(run("1"), run("4"));
    }

    #[test]
    #[should_panic(expected = "failure_threshold")]
    fn degenerate_config_is_rejected() {
        let cfg = SupervisorConfig { failure_threshold: 0, ..SupervisorConfig::default() };
        let _ = FleetSupervisor::wrap_with(FleetEngine::new(&small_cfg()), cfg, &Telemetry::noop());
    }
}
