//! The fleet engine: many independent auto-scaling loops behind one
//! control plane.
//!
//! The paper evaluates one database at a time; the production setting it
//! targets is a *fleet* — thousands of instances, each with its own
//! trace, forecaster state, and scaling loop, sharing one scheduler and
//! one hardware budget. This module expresses that shape: a
//! [`FleetConfig`] is the grid every tenant is built from (trace seeds,
//! replan schedule, policy mix, θ, optional fault profile), a
//! [`TenantRun`] is one tenant's whole record (fitted forecaster, policy
//! ladder, steppable [`SimSession`], capture, circuit breaker), and a
//! [`FleetEngine`] advances all tenants one decision tick at a time by
//! fanning tenant steps over the shared worker pool (`rpas-par`).
//!
//! Determinism contract: every tenant derives its trace and fault seeds
//! from the fleet seed via `child_seed`, tenants never share mutable
//! state, and the pool preserves tenant order — so fleet results are
//! byte-identical for any `RPAS_THREADS`, including the captured
//! tenant-scoped event log (timing fields are stripped when a tenant's
//! capture renders it; see [`FleetReport::trace_lines`]).

use crate::autoscaler::{QuantilePredictivePolicy, ReplanSchedule};
use crate::manager::{RobustAutoScalingManager, ScalingStrategy};
use crate::reactive::ReactiveMax;
use crate::resilient::{ResilienceConfig, ResilientManager};
use crate::supervisor::TenantGuard;
use rpas_forecast::{Forecaster, SeasonalNaive};
use rpas_obs::Obs;
use rpas_par::WorkerPool;
use rpas_telemetry::{RatioSeries, Recorder, SloReport, SloSpec, Telemetry};
use rpas_simdb::{
    fleet_qos, tenant_qos, FaultConfig, FaultPlan, FleetQos, ScalingPolicy, SimConfig,
    SimSession, SimulationReport, TenantQos,
};
use rpas_traces::{
    alibaba_like, alibaba_like_cpu, google_like, google_like_cpu, ClusterTrace, Trace,
};
use rpas_tsmath::rng::child_seed;

/// Identity of one tenant within a fleet (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{:04}", self.0)
    }
}

/// Which synthetic workload family a tenant replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePreset {
    /// Alibaba-like daily-periodic CPU trace.
    Alibaba,
    /// Google-like burstier CPU trace.
    Google,
}

impl TracePreset {
    /// Stable lower-case name (CLI flag value and report label).
    pub fn name(self) -> &'static str {
        match self {
            TracePreset::Alibaba => "alibaba",
            TracePreset::Google => "google",
        }
    }

    /// Parse a CLI flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "alibaba" => Some(TracePreset::Alibaba),
            "google" => Some(TracePreset::Google),
            _ => None,
        }
    }

    /// The preset's CPU trace: `cluster(seed, days).cpu()`, generated
    /// alone.
    pub fn build(self, seed: u64, days: usize) -> Trace {
        match self {
            TracePreset::Alibaba => alibaba_like_cpu(seed, days),
            TracePreset::Google => google_like_cpu(seed, days),
        }
    }

    /// The preset's CPU, memory and disk traces.
    pub fn cluster(self, seed: u64, days: usize) -> ClusterTrace {
        match self {
            TracePreset::Alibaba => alibaba_like(seed, days),
            TracePreset::Google => google_like(seed, days),
        }
    }
}

/// Which scaling policy a tenant runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantPolicyKind {
    /// Reactive-Max baseline (Autopilot-like moving-window scaler).
    ReactiveMax,
    /// Robust predictive policy: seasonal-naive quantile forecaster +
    /// robust manager, replanning on the tenant's schedule.
    Predictive,
    /// The predictive policy wrapped in the graceful-degradation ladder
    /// ([`ResilientManager`]): predictive → seasonal-naive → reactive.
    Resilient,
}

impl TenantPolicyKind {
    /// Stable lower-case name (CLI flag value and report label).
    pub fn name(self) -> &'static str {
        match self {
            TenantPolicyKind::ReactiveMax => "reactive-max",
            TenantPolicyKind::Predictive => "predictive",
            TenantPolicyKind::Resilient => "resilient",
        }
    }

    /// Parse a CLI flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "reactive-max" => Some(TenantPolicyKind::ReactiveMax),
            "predictive" => Some(TenantPolicyKind::Predictive),
            "resilient" => Some(TenantPolicyKind::Resilient),
            _ => None,
        }
    }
}

/// Fleet-level configuration: the grid every tenant is built from.
/// Policies and presets are assigned round-robin over the tenant index,
/// and every per-tenant seed is a `child_seed` of the fleet seed — two
/// fleets with the same config are identical.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of tenants.
    pub tenants: usize,
    /// Fleet seed; every tenant seed derives from it.
    pub seed: u64,
    /// Trace length in days (shared by all tenants).
    pub days: usize,
    /// Scaling threshold θ (shared).
    pub theta: f64,
    /// Minimum pool size (shared).
    pub min_nodes: u32,
    /// Robust quantile τ (shared).
    pub tau: f64,
    /// Replan schedule (shared; `context` = seasonal period).
    pub schedule: ReplanSchedule,
    /// Policy mix, cycled over tenants.
    pub policies: Vec<TenantPolicyKind>,
    /// Workload mix, cycled over tenants.
    pub presets: Vec<TracePreset>,
    /// Resilience-ladder tuning for `Resilient` tenants.
    pub resilience: ResilienceConfig,
    /// Optional fault injection applied to every tenant (each with its
    /// own child seed).
    pub faults: Option<FaultConfig>,
    /// Capture per-tenant obs events in memory for a deterministic
    /// tenant-scoped trace (see [`FleetReport::trace_lines`]).
    pub capture_events: bool,
    /// Optional SLO to evaluate per tenant and fleet-wide at finish
    /// (see [`FleetReport::slo`]).
    pub slo: Option<SloSpec>,
}

impl FleetConfig {
    /// A small default fleet: `tenants` tenants over 4-day traces, θ=60,
    /// the full policy mix over both workload families, no faults.
    pub fn new(tenants: usize, seed: u64) -> Self {
        Self {
            tenants,
            seed,
            days: 4,
            theta: 60.0,
            min_nodes: 1,
            tau: 0.9,
            schedule: ReplanSchedule { context: 144, horizon: 72 },
            policies: vec![
                TenantPolicyKind::Predictive,
                TenantPolicyKind::Resilient,
                TenantPolicyKind::ReactiveMax,
            ],
            presets: vec![TracePreset::Alibaba, TracePreset::Google],
            resilience: ResilienceConfig::default(),
            faults: None,
            capture_events: false,
            slo: None,
        }
    }

    /// Whether a fleet can be built from this configuration and run to
    /// its report: at least one tenant, a non-empty policy and preset
    /// mix, a non-degenerate schedule, shared scalars every tenant's
    /// trace, manager and session accept, and nested resilience, fault
    /// and SLO configs their own `validate` accepts. Front ends holding
    /// outside input (the CLI, the checkpoint loader) call this and
    /// report the `Err`; building from a configuration that fails it
    /// panics.
    pub fn validate(&self) -> Result<(), String> {
        crate::first_failure(&[
            (self.tenants > 0, "a fleet needs at least one tenant"),
            (!self.policies.is_empty(), "policy mix must not be empty"),
            (!self.presets.is_empty(), "preset mix must not be empty"),
            (self.schedule.context > 0 && self.schedule.horizon > 0, "degenerate schedule"),
            (self.days > 0, "a trace needs at least one day"),
        ])?;
        self.sim_config().validate()?;
        ScalingStrategy::Fixed { tau: self.tau }.validate()?;
        self.resilience.validate().map_err(|why| format!("resilience: {why}"))?;
        if let Some(faults) = &self.faults {
            faults.validate().map_err(|why| format!("faults: {why}"))?;
        }
        if let Some(slo) = &self.slo {
            slo.validate().map_err(|why| format!("slo: {why}"))?;
        }
        Ok(())
    }

    /// The simulation every tenant runs: the shared `θ` and pool floor.
    fn sim_config(&self) -> SimConfig {
        SimConfig { theta: self.theta, min_nodes: self.min_nodes, ..SimConfig::default() }
    }
}

/// A tenant's policy in concrete form. The fleet builds one of the three
/// named variants from its config, so a checkpoint's header rebuilds it,
/// and the concrete types let the checkpoint digest read plan cursors.
/// `Custom` is the chaos/testing escape hatch
/// ([`FleetEngine::set_policy`]); no config describes it, so tenants
/// running one cannot be checkpointed.
pub(crate) enum TenantPolicy {
    /// Reactive-Max baseline (stateless).
    ReactiveMax(ReactiveMax),
    /// Robust predictive policy.
    Predictive(QuantilePredictivePolicy<SeasonalNaive>),
    /// Predictive policy inside the graceful-degradation ladder.
    Resilient(Box<ResilientManager<QuantilePredictivePolicy<SeasonalNaive>>>),
    /// Arbitrary injected policy (not checkpointable).
    Custom(Box<dyn ScalingPolicy + Send>),
}

impl TenantPolicy {
    pub(crate) fn as_dyn_mut(&mut self) -> &mut dyn ScalingPolicy {
        match self {
            TenantPolicy::ReactiveMax(p) => p,
            TenantPolicy::Predictive(p) => p,
            TenantPolicy::Resilient(p) => p.as_mut(),
            TenantPolicy::Custom(p) => p.as_mut(),
        }
    }

    pub(crate) fn name(&self) -> &'static str {
        match self {
            TenantPolicy::ReactiveMax(p) => p.name(),
            TenantPolicy::Predictive(p) => p.name(),
            TenantPolicy::Resilient(p) => p.name(),
            TenantPolicy::Custom(p) => p.name(),
        }
    }
}

/// One tenant, whole: who it is and what it was configured to run, its
/// scaling policy (with any fitted forecaster inside), its steppable
/// simulation, its optional event capture, and its supervision state —
/// circuit breaker and `supervisor.*` counters, empty and dark until
/// [`crate::FleetSupervisor::wrap_with`] arms them.
pub(crate) struct TenantRun {
    pub(crate) id: TenantId,
    pub(crate) preset: TracePreset,
    /// The configured policy kind (a [`FleetEngine::set_policy`] swap
    /// does not change it).
    pub(crate) kind: TenantPolicyKind,
    pub(crate) policy: TenantPolicy,
    pub(crate) session: SimSession,
    /// The tenant's trace: a capture handle (`Obs::capture`), the one its
    /// components emit on, whose records stay where they are built until
    /// `finish` renders them.
    pub(crate) capture: Option<Obs>,
    pub(crate) guard: TenantGuard,
    /// The fleet obs handle plus this tenant's `supervisor.*` counters.
    pub(crate) rec: Recorder,
}

impl TenantRun {
    /// Build tenant `i` of the fleet `cfg`: its policy and preset by
    /// round-robin over the mixes, its trace and fault seeds as children
    /// of the fleet seed. Generate the trace, fit the forecaster on the
    /// first half (tenants with too little history degrade to the
    /// reactive bootstrap), assemble the policy, and open the simulation
    /// session.
    fn build(cfg: &FleetConfig, i: usize, tel: &Telemetry) -> Self {
        let id = TenantId(i as u32);
        let preset = cfg.presets[i % cfg.presets.len()];
        let kind = cfg.policies[i % cfg.policies.len()];
        // Even/odd children keep trace and fault streams disjoint.
        let trace = preset.build(child_seed(cfg.seed, 2 * i as u64), cfg.days);
        // Every handle this tenant records through carries its id, so
        // per-tenant cells have a single writer (gauge-safe) and
        // fleet-wide values are label-sums over tenants.
        let tenant_label = id.to_string();
        let labels: [(&str, &str); 1] = [("tenant", tenant_label.as_str())];
        let capture = cfg.capture_events.then(|| Obs::capture(tenant_label.clone()));
        let obs = capture.clone().unwrap_or_default();

        let make_predictive = || {
            let mut fc = SeasonalNaive::new(cfg.schedule.context);
            // A trace shorter than one season leaves the forecaster
            // unfitted; the policy then serves from its reactive
            // bootstrap (and a Resilient wrapper demotes it).
            let _ = fc.fit(&trace.values[..trace.len() / 2]);
            let manager =
                RobustAutoScalingManager::new(cfg.theta, cfg.min_nodes, ScalingStrategy::Fixed {
                    tau: cfg.tau,
                })
                .with_obs(obs.clone());
            QuantilePredictivePolicy::new("predictive", fc, manager, cfg.schedule)
        };
        let policy = match kind {
            TenantPolicyKind::ReactiveMax => TenantPolicy::ReactiveMax(ReactiveMax::new(6)),
            TenantPolicyKind::Predictive => TenantPolicy::Predictive(make_predictive()),
            TenantPolicyKind::Resilient => TenantPolicy::Resilient(Box::new(
                ResilientManager::with_config(make_predictive(), cfg.resilience)
                    .with_obs(obs.clone())
                    .with_telemetry(tel, &labels),
            )),
        };

        let mut session =
            SimSession::new(&trace, cfg.sim_config()).with_obs(obs).with_telemetry(tel, &labels);
        if let Some(faults) = cfg.faults {
            let fault_seed = child_seed(cfg.seed, 2 * i as u64 + 1);
            session = session.with_faults(FaultPlan::build(faults, fault_seed, trace.len()));
        }
        Self {
            id,
            preset,
            kind,
            policy,
            session,
            capture,
            guard: TenantGuard::new(0),
            rec: Recorder::default(),
        }
    }

    /// Whether the tenant's trace is exhausted.
    pub(crate) fn is_done(&self) -> bool {
        self.session.is_done()
    }
}

/// Summary of one finished tenant inside a [`FleetReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// Tenant identity.
    pub id: TenantId,
    /// Workload family label.
    pub preset: &'static str,
    /// Configured policy label.
    pub policy: &'static str,
    /// Quality of service vs the clairvoyant allocation.
    pub qos: TenantQos,
    /// Faults applied to this tenant (0 without fault injection).
    pub faults_applied: u64,
}

/// A tenant still quarantined when the fleet shut down (see
/// `FleetSupervisor` in `crate::supervisor`). Its session was finished
/// on the executed prefix like everyone else's; this record carries the
/// why.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// Tenant identity.
    pub id: TenantId,
    /// Why the circuit breaker opened (threshold statement).
    pub reason: String,
    /// Message of the tenant's most recent panic.
    pub last_error: Option<String>,
    /// How many times this tenant has been quarantined over the run.
    pub strikes: u32,
    /// Supervisor tick at which the current quarantine would have expired.
    pub until_tick: u64,
}

/// The outcome of a fleet run: per-tenant summaries (in tenant order),
/// the fleet QoS aggregate, and — when event capture was on — the
/// deterministic tenant-scoped trace.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// One summary per tenant, in tenant-id order.
    pub tenants: Vec<TenantSummary>,
    /// Fleet-level aggregate.
    pub qos: FleetQos,
    /// Schema-v1 JSONL lines of every captured tenant event, in tenant
    /// order, as each tenant's capture rendered them (a `tenant`
    /// field added, all timing stripped) and numbered fleet-wide by
    /// `seq` — so the trace is byte-identical across reruns and thread
    /// counts. Empty when `capture_events` was off.
    pub trace_lines: Vec<String>,
    /// SLO evaluation (per tenant + `fleet`), present when
    /// [`FleetConfig::slo`] was set.
    pub slo: Option<SloReport>,
    /// Tenants still quarantined at shutdown, in tenant-id order. Empty
    /// for unsupervised runs and healthy fleets.
    pub quarantined: Vec<QuarantineRecord>,
    /// Fleet-availability SLO evaluation (the fraction of tenant-ticks
    /// lost to quarantine), present for supervised runs.
    pub availability: Option<SloReport>,
}

impl FleetReport {
    /// Tenant indices sorted by descending regret (worst offenders
    /// first; ties broken by tenant id for determinism).
    pub fn worst_by_regret(&self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.tenants.len()).collect();
        idx.sort_by_key(|&i| {
            (std::cmp::Reverse(self.tenants[i].qos.regret_node_steps), self.tenants[i].id)
        });
        idx.truncate(n);
        idx
    }
}

/// A fleet of tenants advanced in lockstep over a persistent worker
/// pool. The pool is spawned once at construction (sized by
/// `RPAS_THREADS` / the hardware count, read at that moment) and reused
/// for every tick and for the build fan-out, so steady-state fan-outs
/// pay two condvar round-trips instead of per-tick thread spawns and
/// per-tenant mutex allocations.
pub struct FleetEngine {
    pub(crate) runs: Vec<TenantRun>,
    pub(crate) slo: Option<SloSpec>,
    pub(crate) obs: Obs,
    pub(crate) pool: WorkerPool,
}

impl FleetEngine {
    /// Build every tenant of the fleet (fanned over the worker pool —
    /// trace generation and forecaster fitting dominate; each tenant is
    /// a pure function of its spec, so build order does not matter).
    pub fn new(cfg: &FleetConfig) -> Self {
        Self::with_telemetry(cfg, &Telemetry::noop())
    }

    /// Like [`FleetEngine::new`], but every tenant session and resilience
    /// ladder records through `tel` under a `tenant="tNNNN"` label. Pass
    /// [`Telemetry::noop`] (or call [`FleetEngine::new`]) to keep the
    /// dark path.
    ///
    /// # Panics
    /// Panics when [`FleetConfig::validate`] rejects the configuration.
    pub fn with_telemetry(cfg: &FleetConfig, tel: &Telemetry) -> Self {
        assert_eq!(cfg.validate(), Ok(()), "invalid fleet config");
        let pool = WorkerPool::for_jobs(cfg.tenants);
        let runs = pool.map_indexed(cfg.tenants, |i| TenantRun::build(cfg, i, tel));
        Self { runs, slo: cfg.slo.clone(), obs: Obs::noop(), pool }
    }

    /// Attach a fleet-level obs handle; [`FleetEngine::finish`] emits its
    /// `slo/*` audit events (status + burn alerts) through it.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Replace one tenant's policy with an arbitrary implementation — the
    /// chaos/testing hook behind the supervisor's panic-isolation tests.
    /// A fleet containing a custom policy cannot be checkpointed.
    ///
    /// # Panics
    /// Panics when `tenant` is out of range.
    pub fn set_policy(&mut self, tenant: usize, policy: Box<dyn ScalingPolicy + Send>) {
        self.runs[tenant].policy = TenantPolicy::Custom(policy);
    }

    /// Advance every unfinished tenant by one decision tick, fanning the
    /// steps over the worker pool. Returns the number of tenants that
    /// stepped (0 when the whole fleet is done).
    pub fn tick(&mut self) -> usize {
        let stepped = std::sync::atomic::AtomicUsize::new(0);
        self.pool.for_each_mut(&mut self.runs, |_, run| {
            if run.session.step(run.policy.as_dyn_mut()) {
                stepped.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        });
        stepped.into_inner()
    }

    /// Drive every tenant to the end of its trace. Equivalent to calling
    /// [`FleetEngine::tick`] until it returns 0, but each tenant's whole
    /// remaining run is one pool job (no per-tick fan-out overhead).
    pub fn run_to_completion(&mut self) {
        self.pool.for_each_mut(&mut self.runs, |_, run| {
            while run.session.step(run.policy.as_dyn_mut()) {}
        });
    }

    /// Finish every tenant's session and aggregate the fleet report.
    /// Unfinished tenants are scored on their executed prefix.
    pub fn finish(self) -> FleetReport {
        self.finish_supervised(None)
    }

    /// [`FleetEngine::finish`] with the supervisor's fleet-availability
    /// evaluation attached, and the tenants whose breaker is still open
    /// listed (none when no supervisor armed one). Quarantined tenants
    /// take the same path as everyone else — their sessions are finished
    /// on the executed prefix and their captures go into the trace, never
    /// dropped.
    pub(crate) fn finish_supervised(self, availability: Option<SloReport>) -> FleetReport {
        let mut tenants = Vec::with_capacity(self.runs.len());
        let mut trace_lines = Vec::new();
        let mut subjects: Vec<(String, RatioSeries)> = Vec::new();
        let mut quarantined = Vec::new();
        for run in self.runs {
            let TenantRun { id, preset, kind, policy, session, capture, guard, rec: _ } = run;
            if self.slo.is_some() {
                let flags: Vec<bool> =
                    session.records().iter().map(|s| s.violation).collect();
                subjects.push((id.to_string(), RatioSeries::from_bools(&flags)));
            }
            quarantined.extend(guard.quarantine_record(id));
            let (qos, faults_applied) = if session.records().is_empty() {
                // A tenant that never completed a tick (quarantined from
                // its first decision) has no allocation to score; its
                // fault accounting from partial steps still counts.
                let zero = TenantQos {
                    steps: 0,
                    violation_rate: 0.0,
                    over_provision_node_steps: 0,
                    node_steps: 0,
                    regret_node_steps: 0,
                };
                (zero, session.fault_counts().total())
            } else {
                let report: SimulationReport = session.finish(policy.name());
                (tenant_qos(&report), report.faults.total())
            };
            if let Some(capture) = capture {
                capture.append_captured(&mut trace_lines);
            }
            tenants.push(TenantSummary {
                id,
                preset: preset.name(),
                policy: kind.name(),
                qos,
                faults_applied,
            });
        }
        let qos = fleet_qos(
            &tenants.iter().map(|t| t.qos.clone()).collect::<Vec<_>>(),
        );
        let slo =
            self.slo.as_ref().map(|spec| SloReport::evaluate(spec, &subjects, &self.obs));
        FleetReport { tenants, qos, trace_lines, slo, quarantined, availability }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_obs::{catalog, MemorySink};

    fn small_cfg() -> FleetConfig {
        let mut cfg = FleetConfig::new(6, 11);
        cfg.days = 2;
        cfg.schedule = ReplanSchedule { context: 48, horizon: 24 };
        cfg
    }

    #[test]
    fn tenants_cycle_policies_and_presets_with_distinct_seeds() {
        let cfg = small_cfg();
        let mut engine = FleetEngine::new(&cfg);
        let runs = &engine.runs;
        assert_eq!(runs.len(), 6);
        assert!(runs.iter().enumerate().all(|(i, run)| run.id == TenantId(i as u32)));
        let kinds: Vec<TenantPolicyKind> = runs.iter().map(|run| run.kind).collect();
        let presets: Vec<TracePreset> = runs.iter().map(|run| run.preset).collect();
        let (p, r, m) =
            (TenantPolicyKind::Predictive, TenantPolicyKind::Resilient, TenantPolicyKind::ReactiveMax);
        assert_eq!(kinds, [p, r, m, p, r, m]);
        let (a, g) = (TracePreset::Alibaba, TracePreset::Google);
        assert_eq!(presets, [a, g, a, g, a, g]);
        assert!(runs.iter().all(|run| run.policy.name() == run.kind.name()));
        // Each tenant replays its own child seed's trace, even where two
        // share a preset.
        engine.run_to_completion();
        let mut traces: Vec<Vec<u64>> = engine
            .runs
            .iter()
            .map(|run| run.session.records().iter().map(|s| s.workload.to_bits()).collect())
            .collect();
        traces.sort_unstable();
        traces.dedup();
        assert_eq!(traces.len(), 6, "child seeds must be distinct");
    }

    #[test]
    fn fleet_run_is_deterministic_across_reruns() {
        let mut cfg = small_cfg();
        cfg.capture_events = true;
        cfg.faults = Some(FaultConfig::light());
        let run = || {
            let mut engine = FleetEngine::new(&cfg);
            engine.run_to_completion();
            engine.finish()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.trace_lines.is_empty(), "capture must record events");
        // Tenant-scoped, timing-free lines.
        assert!(a.trace_lines[0].contains("\"tenant\":\"t0000\""), "{}", a.trace_lines[0]);
        assert!(a.trace_lines.iter().all(|l| l.contains("\"ts_us\":0")));
    }

    #[test]
    fn tick_matches_run_to_completion() {
        let cfg = small_cfg();
        let mut a = FleetEngine::new(&cfg);
        let mut b = FleetEngine::new(&cfg);
        a.run_to_completion();
        let mut ticks = 0usize;
        while b.tick() > 0 {
            ticks += 1;
        }
        assert_eq!(ticks, 2 * 144, "one tick per trace step");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn faulted_tenants_report_fault_counts() {
        let mut cfg = small_cfg();
        cfg.faults = Some(FaultConfig::heavy());
        let mut engine = FleetEngine::new(&cfg);
        engine.run_to_completion();
        let report = engine.finish();
        assert!(report.tenants.iter().any(|t| t.faults_applied > 0));
        assert_eq!(report.qos.tenants, 6);
        assert_eq!(report.qos.total_steps, 6 * 2 * 144);
    }

    #[test]
    fn telemetry_and_slo_are_deterministic_across_reruns() {
        let mut cfg = small_cfg();
        cfg.slo = Some(SloSpec::violation_rate_default());
        let run = || {
            let tel = Telemetry::live();
            let mut engine = FleetEngine::with_telemetry(&cfg, &tel);
            engine.run_to_completion();
            let report = engine.finish();
            (report, tel.snapshot().exposition())
        };
        let (ra, expo_a) = run();
        let (rb, expo_b) = run();
        assert_eq!(ra, rb);
        assert_eq!(expo_a, expo_b, "metric exposition must be rerun-stable");

        // Every tenant recorded its per-step counters under its label.
        for t in &ra.tenants {
            let key = format!("sim.steps{{tenant=\"{}\"}} counter {}", t.id, 2 * 144);
            assert!(expo_a.contains(&key), "missing {key:?} in exposition");
        }
        // Resilient tenants register ladder counters too.
        assert!(expo_a.contains("resilience.fallbacks{tenant=\"t0001\"}"), "{expo_a}");

        // The SLO report covers each tenant plus the fleet roll-up, and
        // the fleet bad-count is the sum over tenants.
        let slo = ra.slo.expect("slo configured");
        assert_eq!(slo.tenants.len(), cfg.tenants);
        let tenant_bad: u64 = slo.tenants.iter().map(|s| s.bad).sum();
        assert_eq!(slo.fleet.bad, tenant_bad);
        assert_eq!(slo.fleet.total, (cfg.tenants * 2 * 144) as u64);
        assert!(!slo.render().is_empty());
    }

    #[test]
    fn slo_events_flow_through_the_fleet_obs_handle() {
        let mut cfg = small_cfg();
        cfg.slo = Some(SloSpec::violation_rate_default());
        let mem = MemorySink::new();
        let mut engine =
            FleetEngine::new(&cfg).with_obs(Obs::with_sink(Box::new(mem.clone())));
        engine.run_to_completion();
        let report = engine.finish();
        let events = mem.drain();
        let statuses = events.iter().filter(|e| e.is(catalog::SLO_STATUS)).count();
        assert_eq!(statuses, report.slo.expect("slo configured").tenants.len() + 1);
    }

    #[test]
    fn validate_pins_every_fleet_rule() {
        let ok = small_cfg();
        assert_eq!(ok.validate(), Ok(()));
        let with = |edit: fn(&mut FleetConfig)| {
            let mut cfg = ok.clone();
            edit(&mut cfg);
            cfg
        };
        let theta = "theta must be positive and finite, got";
        let tau = "tau must be in (0,1)";
        let cases: [(FleetConfig, &str); 16] = [
            (with(|c| c.tenants = 0), "a fleet needs at least one tenant"),
            (with(|c| c.policies.clear()), "policy mix must not be empty"),
            (with(|c| c.presets.clear()), "preset mix must not be empty"),
            (with(|c| c.schedule.context = 0), "degenerate schedule"),
            (with(|c| c.schedule.horizon = 0), "degenerate schedule"),
            (with(|c| c.days = 0), "a trace needs at least one day"),
            (with(|c| c.theta = 0.0), theta),
            (with(|c| c.theta = -1.0), theta),
            (with(|c| c.theta = f64::NAN), theta),
            (with(|c| c.theta = f64::INFINITY), theta),
            (with(|c| c.theta = f64::NEG_INFINITY), theta),
            (with(|c| c.min_nodes = 0), "a serving cluster needs at least one node"),
            // Above the tenants' pool ceiling, which `SimSession::new` asserts.
            (with(|c| c.min_nodes = 2000), "min_nodes must not exceed max_nodes"),
            (with(|c| c.tau = 0.0), tau),
            (with(|c| c.tau = 1.0), tau),
            (with(|c| c.tau = f64::NAN), tau),
        ];
        for (cfg, why) in cases {
            let err = cfg.validate().unwrap_err();
            assert!(err.starts_with(why), "{why}: {err}");
        }
    }

    #[test]
    fn worst_by_regret_orders_descending() {
        let cfg = small_cfg();
        let mut engine = FleetEngine::new(&cfg);
        engine.run_to_completion();
        let report = engine.finish();
        let worst = report.worst_by_regret(3);
        assert_eq!(worst.len(), 3);
        for w in worst.windows(2) {
            assert!(
                report.tenants[w[0]].qos.regret_node_steps
                    >= report.tenants[w[1]].qos.regret_node_steps
            );
        }
    }
}
