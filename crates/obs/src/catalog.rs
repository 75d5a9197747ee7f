//! The event catalogue: every `span/name` the workspace emits, declared
//! once with its level, and the only thing [`crate::Obs::emit`],
//! [`crate::Obs::span`] and [`crate::Event::of`] accept.
//!
//! [`EventName`] has no public constructor, so a producer or consumer
//! outside this crate can only name an event that is listed here: a
//! rename is one edit, an unknown name is a compile error, and an entry
//! nobody uses shows up in `tests/event_catalog.rs`.
//!
//! Each entry lists, sorted, the field keys its event may carry
//! (`keys [...]`). A debug build checks every [`crate::Obs::emit`]
//! against the list, so a key set at an emit site is declared here.
//!
//! An entry that ends in `counts "<metric>"` also names the telemetry
//! counter the event increments, so the entries that declare one are the
//! list of counted events. `rpas_telemetry::Recorder::emit` records
//! both from one call, and several entries may share one metric (the
//! `fault/*` events all count into `sim.faults`).
//!
//! ```compile_fail
//! // Private fields: a name cannot be made up at the emit site.
//! let _ = rpas_obs::catalog::EventName { level: rpas_obs::Level::Info, span: "plan", name: "x" };
//! ```

use crate::event::Level;

/// One declared event: its level, span, name, field keys and, if it
/// counts, its counter. Obtainable only as one of this module's constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventName {
    level: Level,
    span: &'static str,
    name: &'static str,
    keys: &'static [&'static str],
    counts: Option<(usize, &'static str)>,
    index: u16,
}

impl EventName {
    /// The level every emit of this event carries.
    pub const fn level(self) -> Level {
        self.level
    }

    /// The subsystem the event belongs to.
    pub const fn span(self) -> &'static str {
        self.span
    }

    /// The event name within its span.
    pub const fn name(self) -> &'static str {
        self.name
    }

    /// The field keys the event may carry, sorted.
    pub const fn keys(self) -> &'static [&'static str] {
        self.keys
    }

    /// The metric this event increments, if its entry declares one.
    pub fn counter(self) -> Option<&'static str> {
        self.counts.map(|(_, metric)| metric)
    }

    /// This entry's index among the [`COUNTED`] entries that declare a
    /// counter, so a recorder finds the counter without a name lookup.
    pub fn counter_slot(self) -> Option<usize> {
        self.counts.map(|(slot, _)| slot)
    }

    /// This entry's position in [`ALL`], which an event built from it
    /// keeps in its record's header.
    pub(crate) const fn index(self) -> u16 {
        self.index
    }

    /// Whether a recorded `span` / `event` pair is this event.
    pub(crate) fn is(self, span: &str, name: &str) -> bool {
        self.span == span && self.name == name
    }
}

impl std::fmt::Display for EventName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.span, self.name)
    }
}

macro_rules! catalog {
    (@counts $id:ident) => { None };
    (@counts $id:ident $metric:literal) => { Some((Slot::$id as usize, $metric)) };
    ($($(#[$doc:meta])+ $id:ident = $level:ident $span:literal / $name:literal
        keys [$($key:ident),* $(,)?] $(counts $metric:literal)?;)+) => {
        /// The entries that declare a counter, numbered in catalogue order.
        #[expect(non_camel_case_types, reason = "variants are the entries' own names")]
        enum Slot { $($(#[doc = $metric] $id,)?)+ Count }

        /// Every entry, numbered in catalogue order: its place in [`ALL`].
        #[expect(non_camel_case_types, reason = "variants are the entries' own names")]
        enum Index { $($id,)+ }

        $(
            $(#[$doc])+
            pub const $id: EventName = EventName {
                level: Level::$level,
                span: $span,
                name: $name,
                keys: &[$(stringify!($key)),*],
                counts: catalog!(@counts $id $($metric)?),
                index: Index::$id as u16,
            };
        )+

        /// Every declared event, sorted by `span/name`.
        pub const ALL: &[EventName] = &[$($id),+];

        /// The catalogue entry for a recorded `span` / `name` pair, if
        /// this build declares one (an old or foreign trace may carry
        /// names it does not). One `match` over the literals, which the
        /// compiler turns into length and word compares.
        pub fn find(span: &str, name: &str) -> Option<EventName> {
            match (span, name) {
                $(($span, $name) => Some($id),)+
                _ => None,
            }
        }

        /// How many entries declare a counter: one past the last
        /// [`EventName::counter_slot`].
        pub const COUNTED: usize = Slot::Count as usize;
    };
}

catalog! {
    /// A `backtest` phase (`fit`, `rolling`) closed; carries `wall_us`.
    BACKTEST_SPAN_CLOSE = Info "backtest" / "span_close" keys [model, phase, samples, windows];
    /// The benchmark ledger's emit probe: one tenant-step measurement.
    BENCH_MEASUREMENT = Info "bench" / "measurement" keys [step, tenant, utilization, violation];
    /// The `experiments` bin was given a name it does not know; `valid`
    /// lists the ones it does.
    BENCH_UNKNOWN_EXPERIMENT = Error "bench" / "unknown_experiment" keys [name, valid];
    /// A results file could not be written.
    BENCH_WRITE_FAILED = Warn "bench" / "write_failed" keys [error, path];
    /// The CLI is exiting 1; `error` says why.
    CLI_FATAL = Error "cli" / "fatal" keys [error, hint];
    /// `--save-weights` on a model that exports none.
    CLI_NO_WEIGHT_SNAPSHOT = Warn "cli" / "no_weight_snapshot" keys [model];
    /// `forecast` is about to fit a model.
    CLI_TRAIN_START = Info "cli" / "train_start" keys [model, samples];
    /// An injected workload anomaly burst hit this step.
    FAULT_ANOMALY = Info "fault" / "anomaly" keys [burst, mult, step] counts "sim.faults";
    /// The policy saw a stale observation this step.
    FAULT_METRIC_DROPOUT = Info "fault" / "metric_dropout" keys [stale_after, step]
        counts "sim.faults";
    /// An injected crash took nodes away.
    FAULT_NODE_CRASH = Info "fault" / "node_crash" keys [count, pool, step] counts "sim.faults";
    /// A scale-up was delayed.
    FAULT_PROVISION_DELAY = Info "fault" / "provision_delay" keys [extra_steps, launched, step]
        counts "sim.faults";
    /// A scaling request was dropped.
    FAULT_SCALE_FAIL = Info "fault" / "scale_fail" keys [current, requested, step]
        counts "sim.faults";
    /// `fleet --kill-at-tick` stopped the run.
    FLEET_KILLED = Warn "fleet" / "killed" keys [path, tick];
    /// `fleet --resume-from` rebuilt a fleet from a checkpoint.
    FLEET_RESUME = Info "fleet" / "resume" keys [path, tick];
    /// `fleet` built its tenants and is about to tick.
    FLEET_START = Info "fleet" / "start" keys [days, seed, tenants];
    /// Context shorter than a season: flat forecast from the last value.
    FORECAST_FLAT_FALLBACK = Warn "forecast" / "flat_fallback" keys [context, last, model, period];
    /// Too little history for a seasonal residual sigma.
    FORECAST_SHORT_HISTORY_SIGMA = Warn "forecast" / "short_history_sigma"
        keys [got, model, needed, period];
    /// The `--trace-out` / `RPAS_TRACE_OUT` file could not be created.
    OBS_TRACE_OPEN_FAILED = Warn "obs" / "trace_open_failed" keys [error, path];
    /// `RPAS_THREADS` held something other than a positive integer.
    PAR_THREADS_OVERRIDE_IGNORED = Warn "par" / "threads_override_ignored" keys [expected, raw];
    /// One Algorithm 1 step: uncertainty, regime, quantile, nodes.
    PLAN_DECISION = Debug "plan" / "decision"
        keys [regime, rho, step, strategy, tau, uncertainty, workload];
    /// Roll-up of one plan: objective, delta, regime counts.
    PLAN_SUMMARY = Info "plan" / "summary" keys [
        conservative_steps, horizon, objective_node_steps, plan_delta, regime_switches, strategy,
        theta,
    ];
    /// The Reactive-Max floor overrode the active tier's target.
    RESILIENCE_BACKSTOP = Debug "resilience" / "backstop" keys [floor, step, tier_target]
        counts "resilience.backstop_overrides";
    /// The ladder stepped down a level.
    RESILIENCE_FALLBACK = Warn "resilience" / "fallback" keys [from, step, to]
        counts "resilience.fallbacks";
    /// A target was clamped by the step-delta / node-count guardrails.
    RESILIENCE_GUARDRAIL_CLAMP = Info "resilience" / "guardrail_clamp" keys [granted, step, want]
        counts "resilience.guardrail_clamps";
    /// Stale metrics: the last granted target was held.
    RESILIENCE_HOLD_LAST = Warn "resilience" / "hold_last" keys [step, target]
        counts "resilience.hold_last";
    /// The ladder stepped back up.
    RESILIENCE_RECOVER = Info "resilience" / "recover" keys [from, step, to]
        counts "resilience.recoveries";
    /// A rejected scaling request is being re-requested after backoff.
    RESILIENCE_RETRY = Warn "resilience" / "retry" keys [left, step, want]
        counts "resilience.retries";
    /// A rejected scaling request ran out of retries.
    RESILIENCE_RETRY_EXHAUSTED = Warn "resilience" / "retry_exhausted" keys [step, want]
        counts "resilience.retries_exhausted";
    /// Roll-up of a rolling-origin evaluation.
    ROLLING_EVAL = Info "rolling" / "eval" keys [context, forecaster, horizon, windows];
    /// One rolling-origin window.
    ROLLING_WINDOW = Debug "rolling" / "window" keys [forecast_us, horizon, index, start];
    /// End-of-run simulator report.
    SIM_REPORT = Info "sim" / "report" keys [
        faults_applied, mean_utilization, node_steps, over_rate, policy, scale_in_events,
        scale_out_events, steps, under_rate, violation_rate,
    ];
    /// One simulator step: workload, nodes, utilisation, violation.
    SIM_STEP = Debug "sim" / "step" keys [nodes, step, utilization, violation, workload]
        counts "sim.steps";
    /// The run had zero-workload steps (once per run, with the count).
    SIM_ZERO_WORKLOAD = Warn "sim" / "zero_workload" keys [policy, steps, total];
    /// A burn-rate window pair fired.
    SLO_BURN_ALERT = Warn "slo" / "burn_alert"
        keys [active_ticks, first_tick, peak_burn, rule, slo, subject];
    /// One SLO subject's budget accounting.
    SLO_STATUS = Info "slo" / "status"
        keys [bad, bad_fraction, budget_remaining, met, objective, slo, subject, ticks, total];
    /// A tenant finished probation.
    SUPERVISOR_HEALTHY = Info "supervisor" / "healthy" keys [tenant, tick];
    /// A tenant's tick panicked and was isolated.
    SUPERVISOR_PANIC = Warn "supervisor" / "panic" keys [error, tenant, tick]
        counts "supervisor.panics";
    /// A tenant was circuit-broken into quarantine.
    SUPERVISOR_QUARANTINE = Warn "supervisor" / "quarantine"
        keys [reason, strikes, tenant, tick, until_tick] counts "supervisor.quarantines";
    /// A quarantined tenant was re-admitted on probation.
    SUPERVISOR_RESTORE = Info "supervisor" / "restore" keys [tenant, tick]
        counts "supervisor.restores";
    /// One DeepAR training epoch: loss and gradient norm.
    TRAIN_DEEPAR_EPOCH = Debug "train.deepar" / "epoch" keys [epoch, grad_norm, loss];
    /// One quantile-MLP training epoch.
    TRAIN_MLP_QUANTILE_EPOCH = Debug "train.mlp-quantile" / "epoch" keys [epoch, grad_norm, loss];
    /// One distribution-head MLP training epoch.
    TRAIN_MLP_EPOCH = Debug "train.mlp" / "epoch" keys [epoch, grad_norm, loss];
    /// One TFT training epoch.
    TRAIN_TFT_EPOCH = Debug "train.tft" / "epoch" keys [epoch, grad_norm, loss];
}

/// Span of the applied-fault events (`FAULT_*`), for consumers that tally
/// a whole span.
pub const FAULT_SPAN: &str = FAULT_ANOMALY.span;

/// Span of the degradation-ladder events (`RESILIENCE_*`).
pub const RESILIENCE_SPAN: &str = RESILIENCE_FALLBACK.span;
