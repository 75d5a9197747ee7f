//! The discrete-time simulation loop tying workload, cluster, and policy
//! together.
//!
//! [`SimSession`] is the one entry point: [`SimSession::run`] drives a
//! policy over the whole trace in one call, and [`SimSession::step`]
//! advances the same loop one decision tick at a time so a fleet engine
//! can interleave many independent sessions (each tenant owns a
//! `SimSession`; see `rpas_core::fleet`).

use crate::cluster::Cluster;
use crate::faults::{recovery_stats, FaultCounts, FaultPlan};
use crate::policy::{Observation, ScaleOutcome, ScalingPolicy};
use crate::report::{SimulationReport, StepRecord};
use crate::warmup::WarmupModel;
use rpas_metrics::provisioning_rates_over;
use rpas_obs::{catalog, Level, Obs};
use rpas_telemetry::{Counter, HistogramHandle, Recorder, Telemetry};
use rpas_traces::Trace;

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Scaling threshold `θ`: maximum average workload per node.
    pub theta: f64,
    /// Minimum pool size (a serving cluster never scales to zero).
    pub min_nodes: u32,
    /// Maximum pool size (physical/account limit).
    pub max_nodes: u32,
    /// Warm-up model for scale-out.
    pub warmup: WarmupModel,
    /// Checkpoint size new nodes rebuild from (GB).
    pub checkpoint_gb: f64,
}

/// The one rule for a scaling threshold `θ`, wherever it is configured:
/// positive and finite.
pub fn validate_theta(theta: f64) -> Result<(), String> {
    if theta > 0.0 && theta.is_finite() {
        return Ok(());
    }
    Err(format!("theta must be positive and finite, got {theta}"))
}

impl SimConfig {
    /// Whether a [`SimSession`] can run under this config: a valid `θ`
    /// ([`validate_theta`]), `1 ≤ min_nodes ≤ max_nodes`, and a finite,
    /// non-negative checkpoint size. Returns the first problem.
    pub fn validate(&self) -> Result<(), String> {
        validate_theta(self.theta)?;
        if self.min_nodes > self.max_nodes {
            return Err("min_nodes must not exceed max_nodes".into());
        }
        if self.min_nodes == 0 {
            return Err("a serving cluster needs at least one node".into());
        }
        if !(self.checkpoint_gb >= 0.0 && self.checkpoint_gb.is_finite()) {
            return Err("checkpoint size must be non-negative and finite".into());
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            theta: 60.0,
            min_nodes: 1,
            max_nodes: 1024,
            warmup: WarmupModel::default(),
            checkpoint_gb: 4.0,
        }
    }
}

/// Utilization-to-θ ratio buckets of the `sim.utilization_ratio`
/// histogram (inclusive upper bounds; the implicit overflow bucket holds
/// ratios beyond 2θ), so `>1` buckets count SLO-violating intervals.
const UTIL_BOUNDS: [f64; 7] = [0.25, 0.5, 0.75, 0.9, 1.0, 1.5, 2.0];

/// The simulation loop as a resumable state machine: one [`SimSession`]
/// is one policy driving one cluster over one realised workload series,
/// advanced one decision tick at a time with [`SimSession::step`] or to
/// the end with [`SimSession::run`].
///
/// It owns its workload (copied from the trace at construction), so it is
/// `Send` and can be parked in a fleet's tenant table between ticks. It is
/// deliberately not `Clone`: its metrics are handles to registry cells, so
/// a clone would pool its counts with the original's; build one session
/// per run instead.
pub struct SimSession {
    cfg: SimConfig,
    rec: Recorder,
    violations: Counter,
    utilization: HistogramHandle,
    faults: Option<FaultPlan>,
    /// Realised workload: anomaly bursts layered on the base trace.
    w: Vec<f64>,
    dt: f64,
    cluster: Cluster,
    counts: FaultCounts,
    /// Prefix of `w` the metric pipeline has delivered.
    visible: usize,
    last_scale: ScaleOutcome,
    steps: Vec<StepRecord>,
    t: usize,
}

impl SimSession {
    /// New session over a workload trace. Attach faults/observability
    /// with the builders *before* the first [`SimSession::step`].
    ///
    /// # Panics
    /// Panics on an empty trace or a config [`SimConfig::validate`] refuses.
    pub fn new(trace: &Trace, cfg: SimConfig) -> Self {
        assert!(!trace.is_empty(), "cannot simulate an empty trace");
        assert_eq!(cfg.validate(), Ok(()), "invalid simulation config");
        let cluster = Cluster::new(cfg.min_nodes, cfg.warmup, cfg.checkpoint_gb);
        let w = trace.as_slice().to_vec();
        Self {
            cfg,
            rec: Recorder::default(),
            violations: Counter::default(),
            utilization: HistogramHandle::default(),
            faults: None,
            dt: trace.interval_secs as f64,
            steps: Vec::with_capacity(w.len()),
            w,
            cluster,
            counts: FaultCounts::default(),
            visible: 0,
            last_scale: ScaleOutcome::NoChange,
            t: 0,
        }
    }

    /// Builder: attach an observability handle. The run then emits one
    /// `sim/step` debug event per interval (utilization, SLO violation
    /// flag), one `fault/*` info event per applied fault, and from
    /// [`SimSession::finish`] a `sim/zero_workload` warn if the trace
    /// contains idle intervals (utilization metrics degenerate there) and
    /// a `sim/report` info summary.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.rec.set_obs(obs);
        self
    }

    /// Builder: record per-tick metrics into a [`Telemetry`] registry —
    /// the counters the `sim/step` and `fault/*` catalogue entries
    /// declare, a `sim.violations` counter and a `sim.utilization_ratio`
    /// histogram (utilization as a fraction of `θ`), all carrying
    /// `labels` (the fleet passes `tenant`). A dark handle keeps the loop
    /// exactly as fast as before: every recording is a single branch.
    pub fn with_telemetry(mut self, tel: &Telemetry, labels: &[(&str, &str)]) -> Self {
        self.rec.resolve(tel, labels, &[catalog::FAULT_SPAN, catalog::SIM_STEP.span()]);
        self.violations = tel.counter("sim.violations", labels);
        self.utilization = tel.histogram("sim.utilization_ratio", labels, &UTIL_BOUNDS);
        self
    }

    /// Builder: inject faults from a precomputed [`FaultPlan`]. The
    /// realised workload is re-derived with the plan's anomaly bursts, and
    /// each step consults the plan: dropouts freeze the history the policy
    /// sees (`metrics_fresh: false`), scale actions can be rejected or
    /// delayed (surfaced as [`ScaleOutcome`] on the next observation), and
    /// node crashes shrink the pool before capacity accounting.
    ///
    /// # Panics
    /// Panics if the plan was built for a different number of steps, or
    /// if the session has already been stepped.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        assert_eq!(plan.len(), self.w.len(), "fault plan length must match the trace");
        assert_eq!(self.t, 0, "faults must be attached before the first step");
        for (t, x) in self.w.iter_mut().enumerate() {
            *x *= plan.anomaly_mult_at(t);
        }
        self.faults = Some(plan);
        self
    }

    /// Number of decision ticks in the whole run.
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// True when every tick has been executed (`step` would be a no-op).
    pub fn is_done(&self) -> bool {
        self.t >= self.w.len()
    }

    /// Never empty: construction rejects empty traces.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Step records produced so far (one per executed tick).
    pub fn records(&self) -> &[StepRecord] {
        &self.steps
    }

    /// Faults applied so far.
    pub fn fault_counts(&self) -> FaultCounts {
        self.counts
    }

    /// Scale-out and scale-in operations performed so far.
    pub fn scale_events(&self) -> (usize, usize) {
        (self.cluster.scale_out_events(), self.cluster.scale_in_events())
    }

    /// Execute one decision tick: the policy observes realised history,
    /// picks a target, the cluster scales (subject to fault injection),
    /// time advances one interval, and the workload is accounted against
    /// effective capacity. Returns `false` once the trace is exhausted.
    pub fn step<P: ScalingPolicy + ?Sized>(&mut self, policy: &mut P) -> bool {
        if self.is_done() {
            return false;
        }
        let t = self.t;
        let workload = self.w[t];
        let fp = self.faults.as_ref();
        let fresh = !fp.is_some_and(|p| p.dropout_at(t));
        if fresh {
            self.visible = t;
        } else {
            self.counts.metric_dropout += 1;
            let visible = self.visible;
            self.rec.emit(catalog::FAULT_METRIC_DROPOUT, |e| {
                e.field("stale_after", visible).field("step", t);
            });
        }
        if let Some(p) = fp {
            let m = p.anomaly_mult_at(t);
            if m != 1.0 {
                self.counts.anomaly_steps += 1;
                self.rec.emit(catalog::FAULT_ANOMALY, |e| {
                    e.field("burst", p.anomaly_kind_at(t).label())
                        .field("mult", m)
                        .field("step", t);
                });
            }
        }
        let obs = Observation {
            step: t,
            history: &self.w[..self.visible],
            current_nodes: self.cluster.size(),
            theta: self.cfg.theta,
            min_nodes: self.cfg.min_nodes,
            metrics_fresh: fresh,
            last_scale: self.last_scale,
        };
        let target = policy.decide(&obs).clamp(self.cfg.min_nodes, self.cfg.max_nodes);
        let current = self.cluster.size();
        self.last_scale = if target == current {
            ScaleOutcome::NoChange
        } else if fp.is_some_and(|p| p.scale_fail_at(t)) {
            self.counts.scale_fail += 1;
            self.rec.emit(catalog::FAULT_SCALE_FAIL, |e| {
                e.field("current", current).field("requested", target).field("step", t);
            });
            ScaleOutcome::Rejected
        } else {
            let delay = if target > current { fp.map_or(0, |p| p.delay_steps_at(t)) } else { 0 };
            self.cluster.scale_to_delayed(target, t, delay as f64 * self.dt);
            if delay > 0 {
                self.counts.provision_delay += 1;
                self.rec.emit(catalog::FAULT_PROVISION_DELAY, |e| {
                    e.field("extra_steps", delay)
                        .field("launched", target - current)
                        .field("step", t);
                });
                ScaleOutcome::Delayed
            } else {
                ScaleOutcome::Applied
            }
        };
        if self.faults.as_ref().is_some_and(|p| p.crash_at(t)) && self.cluster.crash() {
            self.counts.node_crash += 1;
            let pool = self.cluster.size();
            self.rec.emit(catalog::FAULT_NODE_CRASH, |e| {
                e.field("count", 1u32).field("pool", pool).field("step", t);
            });
        }
        let pool = self.cluster.size();
        let capacity = self.cluster.tick(self.dt).max(1e-9);
        let utilization = workload / capacity;
        let violation = utilization > self.cfg.theta * (1.0 + 1e-9);
        if violation {
            self.violations.inc(1);
        }
        self.utilization.record(utilization / self.cfg.theta);
        self.rec.emit(catalog::SIM_STEP, |e| {
            e.field("nodes", pool)
                .field("step", t)
                .field("utilization", utilization)
                .field("violation", violation)
                .field("workload", workload);
        });
        self.steps.push(StepRecord {
            step: t,
            workload,
            target_nodes: target,
            pool_nodes: pool,
            effective_capacity: capacity,
            utilization,
            violation,
        });
        self.t += 1;
        true
    }

    /// Run the policy over every remaining tick, then
    /// [`finish`](SimSession::finish) under `policy.name()`.
    pub fn run<P: ScalingPolicy + ?Sized>(mut self, policy: &mut P) -> SimulationReport {
        while self.step(policy) {}
        self.finish(policy.name())
    }

    /// Close the run: emit the aggregate events and build the
    /// [`SimulationReport`]. `policy_name` labels the report (callers
    /// with a live policy pass `policy.name()`).
    pub fn finish(self, policy_name: &str) -> SimulationReport {
        let Self { cfg, rec, faults, w, cluster, counts, steps, .. } = self;
        let obs = rec.obs();
        // Account only the executed prefix, so finishing a partially
        // stepped session still yields a self-consistent report.
        let w = &w[..steps.len()];
        let zero_steps = w.iter().filter(|&&x| x <= 0.0).count();
        if zero_steps > 0 {
            obs.emit(catalog::SIM_ZERO_WORKLOAD, |e| {
                e.field("steps", zero_steps)
                    .field("total", w.len())
                    .field("policy", policy_name.to_string());
            });
        }

        let provisioning = provisioning_rates_over(
            steps.iter().zip(w).map(|(s, &w)| (s.pool_nodes, w)),
            cfg.theta,
            cfg.min_nodes,
        );
        let violation_rate =
            steps.iter().filter(|s| s.violation).count() as f64 / steps.len() as f64;
        let recovery = faults.as_ref().map(|p| {
            let violations: Vec<bool> = steps.iter().map(|s| s.violation).collect();
            recovery_stats(&violations, p)
        });

        let report = SimulationReport {
            policy: policy_name.to_string(),
            steps,
            provisioning,
            violation_rate,
            scale_out_events: cluster.scale_out_events(),
            scale_in_events: cluster.scale_in_events(),
            checkpoint_reads: cluster.checkpoint_reads(),
            faults: counts,
            recovery,
        };
        if obs.enabled(Level::Info) {
            obs.emit(catalog::SIM_REPORT, |e| {
                e.field("policy", report.policy.clone())
                    .field("steps", report.steps.len())
                    .field("violation_rate", report.violation_rate)
                    .field("under_rate", report.provisioning.under_rate)
                    .field("over_rate", report.provisioning.over_rate)
                    .field("mean_utilization", report.mean_utilization())
                    .field("node_steps", report.total_node_steps())
                    .field("scale_out_events", report.scale_out_events)
                    .field("scale_in_events", report.scale_in_events)
                    .field("faults_applied", report.faults.total());
            });
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FixedPolicy, OraclePolicy};

    fn trace(values: Vec<f64>) -> Trace {
        Trace::new("w", 600, values)
    }

    #[test]
    fn oracle_never_under_provisions() {
        let tr = trace(vec![30.0, 130.0, 250.0, 90.0, 10.0, 400.0]);
        let sim = SimSession::new(&tr, SimConfig::default());
        let mut p = OraclePolicy::new(tr.values.clone());
        let r = sim.run(&mut p);
        assert_eq!(r.provisioning.under_rate, 0.0);
        assert_eq!(r.provisioning.over_rate, 0.0);
        // Warm-up makes capacity fractionally lower in scale-out steps,
        // but at seconds-per-10-minutes it must not breach θ by > ~1%.
        for s in &r.steps {
            assert!(s.utilization <= 61.0, "util {}", s.utilization);
        }
    }

    #[test]
    fn undersized_fixed_policy_violates() {
        let tr = trace(vec![200.0; 10]);
        let sim = SimSession::new(&tr, SimConfig::default());
        let mut p = FixedPolicy(1);
        let r = sim.run(&mut p);
        assert_eq!(r.provisioning.under_rate, 1.0);
        assert_eq!(r.violation_rate, 1.0);
    }

    #[test]
    fn oversized_fixed_policy_over_provisions() {
        let tr = trace(vec![30.0; 8]);
        let sim = SimSession::new(&tr, SimConfig::default());
        let mut p = FixedPolicy(10);
        let r = sim.run(&mut p);
        assert_eq!(r.provisioning.over_rate, 1.0);
        assert_eq!(r.violation_rate, 0.0);
        assert_eq!(r.total_node_steps(), 80);
    }

    #[test]
    fn max_nodes_clamps_requests() {
        let tr = trace(vec![100.0; 4]);
        let cfg = SimConfig { max_nodes: 2, ..Default::default() };
        let sim = SimSession::new(&tr, cfg);
        let mut p = FixedPolicy(50);
        let r = sim.run(&mut p);
        assert!(r.allocations().iter().all(|&c| c == 2));
    }

    #[test]
    fn checkpoint_reads_match_scale_outs() {
        let tr = trace(vec![30.0, 300.0, 30.0, 300.0, 30.0]);
        let sim = SimSession::new(&tr, SimConfig::default());
        let mut p = OraclePolicy::new(tr.values.clone());
        let r = sim.run(&mut p);
        // 30→300 requires +4 nodes twice: 8 checkpoint reads.
        assert_eq!(r.checkpoint_reads, 8);
        assert_eq!(r.scale_out_events, 2);
        assert_eq!(r.scale_in_events, 2);
    }

    #[test]
    fn report_series_lengths() {
        let tr = trace(vec![10.0; 7]);
        let sim = SimSession::new(&tr, SimConfig::default());
        let mut p = FixedPolicy(1);
        let r = sim.run(&mut p);
        assert_eq!(r.allocations().len(), 7);
        assert_eq!(r.steps.len(), 7);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_rejected() {
        let tr = trace(vec![]);
        let _ = SimSession::new(&tr, SimConfig::default());
    }

    #[test]
    fn validate_refuses_every_broken_rule() {
        let ok = SimConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let theta = |theta| SimConfig { theta, ..ok };
        let cases = [
            (theta(0.0), "theta must be positive and finite, got 0"),
            (theta(-1.0), "theta must be positive and finite, got -1"),
            (theta(f64::NAN), "theta must be positive and finite, got NaN"),
            (theta(f64::INFINITY), "theta must be positive and finite, got inf"),
            (theta(f64::NEG_INFINITY), "theta must be positive and finite, got -inf"),
            (SimConfig { min_nodes: 0, ..ok }, "a serving cluster needs at least one node"),
            (SimConfig { min_nodes: 5, max_nodes: 4, ..ok }, "min_nodes must not exceed max_nodes"),
            (SimConfig { checkpoint_gb: -1.0, ..ok }, "checkpoint size must be non-negative"),
            (SimConfig { checkpoint_gb: f64::NAN, ..ok }, "checkpoint size must be non-negative"),
            (SimConfig { checkpoint_gb: f64::INFINITY, ..ok }, "checkpoint size must be non-negative"),
        ];
        for (cfg, why) in cases {
            let err = cfg.validate().unwrap_err();
            assert!(err.starts_with(why), "{cfg:?}: {err}");
        }
        let edge = SimConfig { min_nodes: 4, max_nodes: 4, checkpoint_gb: 0.0, ..ok };
        assert_eq!(edge.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "theta must be positive and finite, got inf")]
    fn session_refuses_an_infinite_theta() {
        let cfg = SimConfig { theta: f64::INFINITY, ..Default::default() };
        let _ = SimSession::new(&trace(vec![1.0]), cfg);
    }

    #[test]
    fn run_emits_step_events_and_report_summary() {
        let tr = trace(vec![30.0, 0.0, 250.0]);
        let mem = rpas_obs::MemorySink::new();
        let sim = SimSession::new(&tr, SimConfig::default())
            .with_obs(Obs::with_sink(Box::new(mem.clone())));
        let _ = sim.run(&mut FixedPolicy(2));

        let events = mem.events();
        assert_eq!(events.iter().filter(|e| e.is(catalog::SIM_STEP)).count(), 3);
        // One idle interval → one zero-workload warning naming it.
        let warn = events.iter().find(|e| e.is(catalog::SIM_ZERO_WORKLOAD)).expect("warn event");
        assert_eq!(warn.level(), Level::Warn);
        assert_eq!(warn.get("steps"), Some(rpas_obs::Value::U64(1)));
        let report = events.iter().find(|e| e.is(catalog::SIM_REPORT)).expect("summary event");
        let utilization = report.get("mean_utilization");
        assert!(matches!(utilization, Some(rpas_obs::Value::F64(u)) if u.is_finite()));
    }

    #[test]
    fn zero_workload_warns_once_per_run_not_per_step() {
        // Regression: a trace full of idle intervals must produce exactly
        // one aggregated warning, not one per step.
        let tr = trace(vec![0.0; 25]);
        let mem = rpas_obs::MemorySink::new();
        let sim = SimSession::new(&tr, SimConfig::default())
            .with_obs(Obs::with_sink(Box::new(mem.clone())));
        let _ = sim.run(&mut FixedPolicy(1));
        let warns: Vec<_> =
            mem.events().into_iter().filter(|e| e.is(catalog::SIM_ZERO_WORKLOAD)).collect();
        assert_eq!(warns.len(), 1, "one warn per run, got {}", warns.len());
        assert_eq!(warns[0].get("steps"), Some(rpas_obs::Value::U64(25)));
        assert_eq!(warns[0].get("total"), Some(rpas_obs::Value::U64(25)));
    }

    #[test]
    fn telemetry_counters_match_the_report() {
        let tr = trace(vec![200.0, 30.0, 200.0, 30.0, 200.0]);
        let tel = Telemetry::live();
        let r = SimSession::new(&tr, SimConfig::default())
            .with_telemetry(&tel, &[("tenant", "t0000")])
            .run(&mut FixedPolicy(1));
        let snap = tel.snapshot();
        let violations = r.steps.iter().filter(|s| s.violation).count() as u64;
        assert_eq!(snap.counter_value("sim.steps{tenant=\"t0000\"}"), Some(5));
        assert_eq!(snap.counter_value("sim.violations{tenant=\"t0000\"}"), Some(violations));
        assert!(violations > 0);
        // The >θ histogram buckets agree with the violation counter.
        let exp = snap.exposition();
        assert!(exp.contains("sim.utilization_ratio{tenant=\"t0000\"} histogram count=5"), "{exp}");
    }

    #[test]
    fn dark_telemetry_does_not_change_the_run() {
        let tr = trace(vec![30.0, 130.0, 250.0, 90.0]);
        let dark = SimSession::new(&tr, SimConfig::default()).run(&mut FixedPolicy(3));
        let tel = Telemetry::live();
        let lit = SimSession::new(&tr, SimConfig::default())
            .with_telemetry(&tel, &[])
            .run(&mut FixedPolicy(3));
        assert_eq!(dark.steps, lit.steps);
    }

    #[test]
    fn observability_does_not_change_the_run() {
        let tr = trace(vec![30.0, 130.0, 250.0, 90.0]);
        let dark = SimSession::new(&tr, SimConfig::default()).run(&mut FixedPolicy(3));
        let lit = SimSession::new(&tr, SimConfig::default())
            .with_obs(Obs::with_sink(Box::new(rpas_obs::MemorySink::new())))
            .run(&mut FixedPolicy(3));
        assert_eq!(dark.steps, lit.steps);
        assert_eq!(dark.provisioning, lit.provisioning);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::faults::{FaultConfig, FaultPlan};
    use crate::policy::{FixedPolicy, PolicyHealth, ScaleOutcome};

    fn trace(values: Vec<f64>) -> Trace {
        Trace::new("w", 600, values)
    }

    /// Records what the policy observed each step, then requests a
    /// constant target.
    struct Probe {
        target: u32,
        fresh: Vec<bool>,
        hist_len: Vec<usize>,
        outcomes: Vec<ScaleOutcome>,
    }

    impl Probe {
        fn new(target: u32) -> Self {
            Self { target, fresh: vec![], hist_len: vec![], outcomes: vec![] }
        }
    }

    impl ScalingPolicy for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn decide(&mut self, obs: &Observation<'_>) -> u32 {
            self.fresh.push(obs.metrics_fresh);
            self.hist_len.push(obs.history.len());
            self.outcomes.push(obs.last_scale);
            self.target
        }
        fn health(&self) -> PolicyHealth {
            PolicyHealth::Healthy
        }
    }

    #[test]
    fn faulted_run_is_deterministic() {
        let tr = trace((0..200).map(|i| 100.0 + 50.0 * ((i as f64) * 0.3).sin()).collect());
        let run = || {
            let plan = FaultPlan::build(FaultConfig::heavy(), 42, tr.len());
            SimSession::new(&tr, SimConfig::default())
                .with_faults(plan)
                .run(&mut FixedPolicy(3))
        };
        let a = run();
        let b = run();
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.recovery, b.recovery);
    }

    #[test]
    fn anomaly_bursts_change_realised_workload() {
        let tr = trace(vec![100.0; 300]);
        let plan = FaultPlan::build(
            FaultConfig::from_spec("anomaly=0.05,anomaly_max=6,anomaly_mult=3").unwrap(),
            7,
            300,
        );
        let r = SimSession::new(&tr, SimConfig::default())
            .with_faults(plan.clone())
            .run(&mut FixedPolicy(2));
        assert!(r.faults.anomaly_steps > 0);
        for s in &r.steps {
            let expected = 100.0 * plan.anomaly_mult_at(s.step);
            assert!((s.workload - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn dropout_freezes_history_and_flags_stale() {
        let tr = trace(vec![50.0; 20]);
        let plan = FaultPlan::build(FaultConfig::from_spec("dropout=1").unwrap(), 3, 20);
        let mut probe = Probe::new(1);
        let r = SimSession::new(&tr, SimConfig::default()).with_faults(plan).run(&mut probe);
        // Every step dropped: the policy never sees fresh metrics and the
        // visible history never advances past the start.
        assert!(probe.fresh.iter().all(|&f| !f));
        assert!(probe.hist_len.iter().all(|&l| l == 0));
        assert_eq!(r.faults.metric_dropout, 20);
    }

    #[test]
    fn scale_fail_rejects_the_action_and_reports_it() {
        let tr = trace(vec![50.0; 10]);
        let plan = FaultPlan::build(FaultConfig::from_spec("scale_fail=1").unwrap(), 5, 10);
        let mut probe = Probe::new(4);
        let r = SimSession::new(&tr, SimConfig::default()).with_faults(plan).run(&mut probe);
        // Every attempt rejected: the pool never grows past min_nodes.
        assert!(r.steps.iter().all(|s| s.pool_nodes == 1));
        assert!(r.steps.iter().all(|s| s.target_nodes == 4));
        assert_eq!(r.faults.scale_fail, 10);
        // From step 1 on, the policy observes the rejection.
        assert_eq!(probe.outcomes[0], ScaleOutcome::NoChange);
        assert!(probe.outcomes[1..].iter().all(|&o| o == ScaleOutcome::Rejected));
    }

    #[test]
    fn crashes_shrink_the_pool_before_accounting() {
        let tr = trace(vec![50.0; 12]);
        let plan = FaultPlan::build(FaultConfig::from_spec("crash=1").unwrap(), 9, 12);
        let r = SimSession::new(&tr, SimConfig::default()).with_faults(plan).run(&mut FixedPolicy(4));
        // Each step: scale to 4, then one node crashes → the pool the
        // interval is served with stays below the target.
        assert!(r.steps.iter().all(|s| s.pool_nodes < s.target_nodes));
        assert_eq!(r.faults.node_crash, 12);
    }

    #[test]
    fn provision_delay_reduces_early_capacity() {
        let tr = trace(vec![300.0; 8]);
        let clean = SimSession::new(&tr, SimConfig::default()).run(&mut FixedPolicy(5));
        let plan =
            FaultPlan::build(FaultConfig::from_spec("delay=1,delay_max=4").unwrap(), 2, 8);
        let mut probe = Probe::new(5);
        let slowed =
            SimSession::new(&tr, SimConfig::default()).with_faults(plan).run(&mut probe);
        assert!(slowed.faults.provision_delay > 0);
        assert!(
            slowed.steps[0].effective_capacity < clean.steps[0].effective_capacity,
            "delayed provisioning must lower scale-out capacity ({} vs {})",
            slowed.steps[0].effective_capacity,
            clean.steps[0].effective_capacity
        );
        // The policy sees the Delayed outcome on the following step.
        assert_eq!(probe.outcomes[1], ScaleOutcome::Delayed);
    }

    #[test]
    fn fault_events_match_report_counts() {
        let tr = trace((0..150).map(|i| 80.0 + (i % 7) as f64 * 30.0).collect());
        let plan = FaultPlan::build(FaultConfig::heavy(), 13, 150);
        let mem = rpas_obs::MemorySink::new();
        let r = SimSession::new(&tr, SimConfig::default())
            .with_obs(Obs::with_sink(Box::new(mem.clone())))
            .with_faults(plan)
            .run(&mut FixedPolicy(3));
        let events = mem.events();
        let count = |name: catalog::EventName| -> u64 {
            events.iter().filter(|e| e.is(name)).count() as u64
        };
        assert_eq!(count(catalog::FAULT_SCALE_FAIL), r.faults.scale_fail);
        assert_eq!(count(catalog::FAULT_PROVISION_DELAY), r.faults.provision_delay);
        assert_eq!(count(catalog::FAULT_NODE_CRASH), r.faults.node_crash);
        assert_eq!(count(catalog::FAULT_METRIC_DROPOUT), r.faults.metric_dropout);
        assert_eq!(count(catalog::FAULT_ANOMALY), r.faults.anomaly_steps);
        assert!(r.faults.total() > 0, "heavy profile must inject something");
        assert!(r.recovery.is_some());
    }

    #[test]
    fn clean_run_reports_no_faults() {
        let tr = trace(vec![90.0; 6]);
        let r = SimSession::new(&tr, SimConfig::default()).run(&mut FixedPolicy(2));
        assert_eq!(r.faults, FaultCounts::default());
        assert!(r.recovery.is_none());
    }

    #[test]
    #[should_panic(expected = "fault plan length")]
    fn mismatched_plan_length_rejected() {
        let tr = trace(vec![50.0; 10]);
        let plan = FaultPlan::build(FaultConfig::light(), 1, 5);
        let _ = SimSession::new(&tr, SimConfig::default()).with_faults(plan);
    }
}

#[cfg(test)]
mod determinism_tests {
    use super::*;
    use crate::policy::OraclePolicy;
    use rpas_traces::{google_like, Trace};

    #[test]
    fn simulation_is_deterministic() {
        let trace: Trace = google_like(11, 3).cpu().clone();
        let run = || {
            let sim = SimSession::new(&trace, SimConfig::default());
            let mut p = OraclePolicy::new(trace.values.clone());
            sim.run(&mut p)
        };
        let a = run();
        let b = run();
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.provisioning, b.provisioning);
        assert_eq!(a.checkpoint_reads, b.checkpoint_reads);
    }
}
