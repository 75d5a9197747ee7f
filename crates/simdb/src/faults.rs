//! Deterministic, seed-driven fault injection for the simulator.
//!
//! A [`FaultPlan`] is precomputed from a [`FaultConfig`] and a `u64` seed
//! before the run starts: per-step vectors say which faults are armed at
//! which step. The simulator consults the plan while running and emits one
//! `fault/*` obs event per *applied* fault, so `trace-report` can
//! reconstruct the realised fault schedule from the JSONL trace alone.
//!
//! Five fault classes (DESIGN.md §8):
//!
//! * **scale_fail** — a requested scale action is rejected outright;
//! * **provision_delay** — launched nodes take extra intervals of warm-up;
//! * **node_crash** — an active node dies mid-interval;
//! * **metric_dropout** — the metric pipeline delivers nothing this step
//!   (policies see a stale history prefix);
//! * **anomaly** — a workload burst (spike or level shift) multiplies the
//!   trace for a bounded span of steps.
//!
//! Each class draws from its own `child_seed` stream, so changing one rate
//! never perturbs the schedule of the others.

use rpas_obs::json::escape_into;
use rpas_tsmath::rng::{child_seed, seeded, uniform_index, RngCore};
use std::fmt::Write;

/// Per-class fault rates. All `*_prob` fields are per-step (or per-action)
/// probabilities in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a requested scale action fails outright.
    pub scale_fail_prob: f64,
    /// Probability a scale-out's provisioning is delayed.
    pub provision_delay_prob: f64,
    /// Maximum extra provisioning delay, in steps (uniform in `1..=max`).
    pub provision_delay_max_steps: u32,
    /// Per-step probability one active node crashes mid-interval.
    pub node_crash_prob: f64,
    /// Per-step probability the metric pipeline delivers nothing.
    pub metric_dropout_prob: f64,
    /// Per-step probability a workload anomaly burst starts.
    pub anomaly_start_prob: f64,
    /// Maximum burst length in steps (uniform in `1..=max`).
    pub anomaly_max_steps: u32,
    /// Maximum workload multiplier at the top of a burst (> 1).
    pub anomaly_max_mult: f64,
}

impl FaultConfig {
    /// No faults at all — the happy path (useful as a matrix baseline).
    pub fn none() -> Self {
        Self {
            scale_fail_prob: 0.0,
            provision_delay_prob: 0.0,
            provision_delay_max_steps: 0,
            node_crash_prob: 0.0,
            metric_dropout_prob: 0.0,
            anomaly_start_prob: 0.0,
            anomaly_max_steps: 0,
            anomaly_max_mult: 1.0,
        }
    }

    /// Moderate chaos: occasional failures of every class.
    pub fn light() -> Self {
        Self {
            scale_fail_prob: 0.05,
            provision_delay_prob: 0.10,
            provision_delay_max_steps: 3,
            node_crash_prob: 0.01,
            metric_dropout_prob: 0.05,
            anomaly_start_prob: 0.02,
            anomaly_max_steps: 8,
            anomaly_max_mult: 3.0,
        }
    }

    /// Aggressive chaos: frequent failures, long delays, big bursts.
    pub fn heavy() -> Self {
        Self {
            scale_fail_prob: 0.20,
            provision_delay_prob: 0.30,
            provision_delay_max_steps: 6,
            node_crash_prob: 0.05,
            metric_dropout_prob: 0.15,
            anomaly_start_prob: 0.04,
            anomaly_max_steps: 12,
            anomaly_max_mult: 4.0,
        }
    }

    /// Parse a fault spec string: a profile name (`none` / `light` /
    /// `heavy`), optionally followed by comma-separated `key=value`
    /// overrides. A spec starting directly with `key=value` pairs builds
    /// on `none`.
    ///
    /// Keys: `scale_fail`, `delay`, `delay_max`, `crash`, `dropout`,
    /// `anomaly`, `anomaly_max`, `anomaly_mult`. `delay_max` and
    /// `anomaly_max` take a whole number in `[0, u32::MAX]`. An `anomaly`
    /// rate needs `anomaly_max` and an `anomaly_mult` above 1, and a
    /// `delay` rate a `delay_max`, unless the profile sets them.
    ///
    /// ```
    /// use rpas_simdb::FaultConfig;
    /// for spec in [
    ///     "light",
    ///     "heavy,crash=0",
    ///     "light,anomaly=0.1",
    ///     "scale_fail=0.5,anomaly=0.1,anomaly_max=8,anomaly_mult=3",
    /// ] {
    ///     assert!(FaultConfig::from_spec(spec).is_ok(), "{spec}");
    /// }
    /// ```
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut cfg = Self::none();
        for (i, part) in spec.split(',').map(str::trim).enumerate() {
            if part.is_empty() {
                return Err(format!("empty clause in fault spec {spec:?}"));
            }
            if i == 0 && !part.contains('=') {
                cfg = match part {
                    "none" => Self::none(),
                    "light" => Self::light(),
                    "heavy" => Self::heavy(),
                    other => return Err(format!("unknown fault profile {other:?}")),
                };
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {part:?}"))?;
            let key = key.trim();
            let num: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("fault spec value {value:?} is not a number"))?;
            let steps = || {
                if num.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(&num) {
                    Ok(num as u32)
                } else {
                    let most = u32::MAX;
                    Err(format!("fault spec key {key} takes a whole number in [0, {most}], got {value:?}"))
                }
            };
            match key {
                "scale_fail" => cfg.scale_fail_prob = num,
                "delay" => cfg.provision_delay_prob = num,
                "delay_max" => cfg.provision_delay_max_steps = steps()?,
                "crash" => cfg.node_crash_prob = num,
                "dropout" => cfg.metric_dropout_prob = num,
                "anomaly" => cfg.anomaly_start_prob = num,
                "anomaly_max" => cfg.anomaly_max_steps = steps()?,
                "anomaly_mult" => cfg.anomaly_max_mult = num,
                other => return Err(format!("unknown fault spec key {other:?}")),
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// The spec [`from_spec`](Self::from_spec) reads back as this config:
    /// `light` or `heavy` by name, any other config as every key. A
    /// fleet's report prints it, so a run resumed from a checkpoint's
    /// config prints what the uninterrupted run did.
    pub fn spec(&self) -> String {
        if *self == Self::light() {
            return "light".to_string();
        }
        if *self == Self::heavy() {
            return "heavy".to_string();
        }
        format!(
            "scale_fail={},delay={},delay_max={},crash={},dropout={},anomaly={},anomaly_max={},anomaly_mult={}",
            self.scale_fail_prob,
            self.provision_delay_prob,
            self.provision_delay_max_steps,
            self.node_crash_prob,
            self.metric_dropout_prob,
            self.anomaly_start_prob,
            self.anomaly_max_steps,
            self.anomaly_max_mult,
        )
    }

    /// Check rates and bounds; returns a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("scale_fail", self.scale_fail_prob),
            ("delay", self.provision_delay_prob),
            ("crash", self.node_crash_prob),
            ("dropout", self.metric_dropout_prob),
            ("anomaly", self.anomaly_start_prob),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(format!("fault probability {name}={p} outside [0, 1]"));
            }
        }
        if self.provision_delay_prob > 0.0 && self.provision_delay_max_steps == 0 {
            return Err("delay probability set but delay_max is 0".into());
        }
        if self.anomaly_start_prob > 0.0 {
            if self.anomaly_max_steps == 0 {
                return Err("anomaly probability set but anomaly_max is 0".into());
            }
            if self.anomaly_max_mult <= 1.0 || !self.anomaly_max_mult.is_finite() {
                return Err(format!(
                    "anomaly_mult must be a finite value > 1, got {}",
                    self.anomaly_max_mult
                ));
            }
        }
        Ok(())
    }

    /// Whether this config can inject anything at all.
    pub fn is_none(&self) -> bool {
        self.scale_fail_prob == 0.0
            && self.provision_delay_prob == 0.0
            && self.node_crash_prob == 0.0
            && self.metric_dropout_prob == 0.0
            && self.anomaly_start_prob == 0.0
    }
}

/// Kind of workload anomaly at a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AnomalyKind {
    /// No anomaly active.
    None,
    /// Short upward spike burst.
    Spike,
    /// Sustained level shift (up or down).
    LevelShift,
}

impl AnomalyKind {
    /// Stable lowercase label for obs fields and schedule lines.
    pub(crate) fn label(self) -> &'static str {
        match self {
            AnomalyKind::None => "none",
            AnomalyKind::Spike => "spike",
            AnomalyKind::LevelShift => "level_shift",
        }
    }
}

/// Applied-fault tallies (what actually hit the run, as opposed to what
/// the plan armed — a scale failure armed at a step where the policy
/// requested no change never fires).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Scale actions rejected.
    pub scale_fail: u64,
    /// Scale-outs whose provisioning was delayed.
    pub provision_delay: u64,
    /// Nodes crashed.
    pub node_crash: u64,
    /// Steps with no metric delivery.
    pub metric_dropout: u64,
    /// Steps with an anomaly multiplier active.
    pub anomaly_steps: u64,
}

impl FaultCounts {
    /// Total applied faults across all classes.
    pub fn total(&self) -> u64 {
        self.scale_fail
            + self.provision_delay
            + self.node_crash
            + self.metric_dropout
            + self.anomaly_steps
    }
}

/// Recovery-time summary: lengths of SLO-violation runs attributable to an
/// injected fault (the run starts within `ATTRIBUTION_WINDOW` steps of a
/// scheduled fault).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryStats {
    /// Fault-attributable violation episodes.
    pub episodes: u64,
    /// Mean episode length in steps (0 when there are no episodes).
    pub mean_steps: f64,
    /// Longest episode in steps.
    pub max_steps: u64,
}

/// How many steps after a scheduled fault a starting violation run is
/// still attributed to it.
pub(crate) const ATTRIBUTION_WINDOW: usize = 3;

/// A precomputed, per-step fault schedule. Build once with
/// [`FaultPlan::build`]; the same `(config, seed, steps)` triple always
/// yields a byte-identical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    cfg: FaultConfig,
    scale_fail: Vec<bool>,
    delay_steps: Vec<u32>,
    crash: Vec<bool>,
    dropout: Vec<bool>,
    anomaly_mult: Vec<f64>,
    anomaly_kind: Vec<AnomalyKind>,
}

impl FaultPlan {
    /// Build the schedule for a run of `steps` intervals. Each fault class
    /// consumes an independent child stream of `seed`.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`FaultConfig::validate`].
    #[expect(clippy::expect_used, reason = "# Panics contract: outside configs go through validate() first")]
    pub fn build(cfg: FaultConfig, seed: u64, steps: usize) -> Self {
        cfg.validate().expect("invalid fault config");
        let draw = |stream: u64, prob: f64| -> Vec<bool> {
            let mut rng = seeded(child_seed(seed, stream));
            (0..steps).map(|_| rng.next_f64() < prob).collect()
        };
        let scale_fail = draw(0, cfg.scale_fail_prob);
        let crash = draw(2, cfg.node_crash_prob);
        let dropout = draw(3, cfg.metric_dropout_prob);

        let mut rng = seeded(child_seed(seed, 1));
        let delay_steps = (0..steps)
            .map(|_| {
                // Draw the uniform unconditionally so per-step streams stay
                // aligned when only the probability changes.
                let armed = rng.next_f64() < cfg.provision_delay_prob;
                if armed {
                    1 + uniform_index(&mut rng, cfg.provision_delay_max_steps as usize) as u32
                } else {
                    0
                }
            })
            .collect();

        let mut rng = seeded(child_seed(seed, 4));
        let mut anomaly_mult = vec![1.0; steps];
        let mut anomaly_kind = vec![AnomalyKind::None; steps];
        let mut t = 0;
        while t < steps {
            if rng.next_f64() >= cfg.anomaly_start_prob {
                t += 1;
                continue;
            }
            let dur = 1 + uniform_index(&mut rng, cfg.anomaly_max_steps as usize);
            let spike = rng.next_f64() < 0.6;
            let u = rng.next_f64();
            let (kind, mult) = if spike {
                (AnomalyKind::Spike, 1.5 + u * (cfg.anomaly_max_mult - 1.5).max(0.0))
            } else if rng.next_f64() < 0.5 {
                (AnomalyKind::LevelShift, 0.3 + u * 0.4)
            } else {
                (AnomalyKind::LevelShift, 1.2 + u * (cfg.anomaly_max_mult - 1.2).max(0.0))
            };
            for i in t..(t + dur).min(steps) {
                anomaly_mult[i] = mult;
                anomaly_kind[i] = kind;
            }
            t += dur;
        }

        Self { cfg, scale_fail, delay_steps, crash, dropout, anomaly_mult, anomaly_kind }
    }

    /// The config this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Number of scheduled steps.
    pub(crate) fn len(&self) -> usize {
        self.scale_fail.len()
    }

    /// Is a scale-action failure armed at `t`?
    pub(crate) fn scale_fail_at(&self, t: usize) -> bool {
        self.scale_fail.get(t).copied().unwrap_or(false)
    }

    /// Extra provisioning delay (in steps) armed for launches at `t`.
    pub(crate) fn delay_steps_at(&self, t: usize) -> u32 {
        self.delay_steps.get(t).copied().unwrap_or(0)
    }

    /// Does a node crash at `t`?
    pub(crate) fn crash_at(&self, t: usize) -> bool {
        self.crash.get(t).copied().unwrap_or(false)
    }

    /// Does the metric pipeline drop out at `t`?
    pub(crate) fn dropout_at(&self, t: usize) -> bool {
        self.dropout.get(t).copied().unwrap_or(false)
    }

    /// Workload multiplier at `t` (1.0 when no anomaly is active).
    pub fn anomaly_mult_at(&self, t: usize) -> f64 {
        self.anomaly_mult.get(t).copied().unwrap_or(1.0)
    }

    /// Anomaly kind at `t`.
    pub(crate) fn anomaly_kind_at(&self, t: usize) -> AnomalyKind {
        self.anomaly_kind.get(t).copied().unwrap_or(AnomalyKind::None)
    }

    /// Is *any* fault class scheduled at `t`?
    pub(crate) fn any_fault_at(&self, t: usize) -> bool {
        self.scale_fail_at(t)
            || self.delay_steps_at(t) > 0
            || self.crash_at(t)
            || self.dropout_at(t)
            || self.anomaly_mult_at(t) != 1.0
    }

    /// Scheduled (armed) tallies per class. Action-conditioned classes
    /// (scale_fail, provision_delay) may apply fewer times than scheduled.
    pub fn scheduled(&self) -> FaultCounts {
        FaultCounts {
            scale_fail: self.scale_fail.iter().filter(|&&b| b).count() as u64,
            provision_delay: self.delay_steps.iter().filter(|&&d| d > 0).count() as u64,
            node_crash: self.crash.iter().filter(|&&b| b).count() as u64,
            metric_dropout: self.dropout.iter().filter(|&&b| b).count() as u64,
            anomaly_steps: self.anomaly_mult.iter().filter(|&&m| m != 1.0).count() as u64,
        }
    }

    /// The scheduled fault timeline as deterministic JSONL: one line per
    /// armed fault, ordered by step then by class. `label` (e.g. a fault
    /// profile spec) is included in every line when given, JSON-escaped,
    /// so a matrix run can concatenate several plans into one artifact.
    ///
    /// This is the byte-identical-artifact surface: the same plan always
    /// serialises to the same bytes (no timestamps, no float drift — the
    /// multiplier is printed with Rust's shortest-roundtrip formatting).
    pub fn schedule_jsonl(&self, label: Option<&str>) -> String {
        let mut head = String::from("{");
        if let Some(label) = label {
            head.push_str("\"profile\":\"");
            escape_into(&mut head, label);
            head.push_str("\",");
        }
        let fixed = head.len();
        let mut out = String::new();
        for t in 0..self.len() {
            head.truncate(fixed);
            let _ = write!(head, "\"step\":{t},\"kind\":");
            if self.scale_fail_at(t) {
                let _ = writeln!(out, "{head}\"scale_fail\"}}");
            }
            let d = self.delay_steps_at(t);
            if d > 0 {
                let _ = writeln!(out, "{head}\"provision_delay\",\"extra_steps\":{d}}}");
            }
            if self.crash_at(t) {
                let _ = writeln!(out, "{head}\"node_crash\",\"count\":1}}");
            }
            if self.dropout_at(t) {
                let _ = writeln!(out, "{head}\"metric_dropout\"}}");
            }
            let m = self.anomaly_mult_at(t);
            if m != 1.0 {
                let burst = self.anomaly_kind_at(t).label();
                let _ = writeln!(out, "{head}\"anomaly\",\"burst\":\"{burst}\",\"mult\":{m}}}");
            }
        }
        out
    }
}

/// Length statistics of violation runs that start within
/// [`ATTRIBUTION_WINDOW`] steps after a scheduled fault — the
/// recovery-time view of a chaos run. `violations[t]` is the per-step SLO
/// violation flag from the simulation report.
pub(crate) fn recovery_stats(violations: &[bool], plan: &FaultPlan) -> RecoveryStats {
    let mut episodes = Vec::new();
    let mut t = 0;
    while t < violations.len() {
        if !violations[t] {
            t += 1;
            continue;
        }
        let start = t;
        while t < violations.len() && violations[t] {
            t += 1;
        }
        let attributable = (start.saturating_sub(ATTRIBUTION_WINDOW)..=start)
            .any(|s| plan.any_fault_at(s));
        if attributable {
            episodes.push((t - start) as u64);
        }
    }
    let max_steps = episodes.iter().copied().max().unwrap_or(0);
    let mean_steps = if episodes.is_empty() {
        0.0
    } else {
        episodes.iter().sum::<u64>() as f64 / episodes.len() as f64
    };
    RecoveryStats { episodes: episodes.len() as u64, mean_steps, max_steps }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_and_schedule() {
        let a = FaultPlan::build(FaultConfig::heavy(), 42, 500);
        let b = FaultPlan::build(FaultConfig::heavy(), 42, 500);
        assert_eq!(a, b);
        assert_eq!(a.schedule_jsonl(Some("heavy")), b.schedule_jsonl(Some("heavy")));
        let c = FaultPlan::build(FaultConfig::heavy(), 43, 500);
        assert_ne!(a, c);
    }

    #[test]
    fn none_profile_schedules_nothing() {
        let p = FaultPlan::build(FaultConfig::none(), 7, 300);
        assert_eq!(p.scheduled(), FaultCounts::default());
        assert!(p.schedule_jsonl(None).is_empty());
        assert!(!(0..300).any(|t| p.any_fault_at(t)));
    }

    #[test]
    fn rates_roughly_honoured() {
        let p = FaultPlan::build(FaultConfig::heavy(), 11, 10_000);
        let s = p.scheduled();
        // 20% scale-fail over 10k steps: expect ~2000, 5 sigma ≈ 283.
        assert!((s.scale_fail as i64 - 2000).abs() < 300, "scale_fail {}", s.scale_fail);
        assert!((s.metric_dropout as i64 - 1500).abs() < 300, "dropout {}", s.metric_dropout);
        assert!(s.node_crash > 300 && s.node_crash < 700, "crash {}", s.node_crash);
        assert!(s.anomaly_steps > 0);
        assert!(s.provision_delay > 0);
    }

    #[test]
    fn class_streams_are_independent() {
        // Zeroing one class must not change another class's schedule.
        let full = FaultPlan::build(FaultConfig::heavy(), 5, 1000);
        let mut cfg = FaultConfig::heavy();
        cfg.node_crash_prob = 0.0;
        let nocrash = FaultPlan::build(cfg, 5, 1000);
        assert_eq!(full.scale_fail, nocrash.scale_fail);
        assert_eq!(full.dropout, nocrash.dropout);
        assert_eq!(full.anomaly_mult, nocrash.anomaly_mult);
        assert!(nocrash.scheduled().node_crash == 0);
    }

    #[test]
    fn anomaly_multipliers_bounded() {
        let p = FaultPlan::build(FaultConfig::heavy(), 3, 5000);
        for t in 0..5000 {
            let m = p.anomaly_mult_at(t);
            assert!(m.is_finite() && m > 0.0 && m <= FaultConfig::heavy().anomaly_max_mult);
            if m == 1.0 {
                assert_eq!(p.anomaly_kind_at(t), AnomalyKind::None);
            } else {
                assert_ne!(p.anomaly_kind_at(t), AnomalyKind::None);
            }
        }
    }

    #[test]
    fn spec_parses_profiles_and_overrides() {
        assert_eq!(FaultConfig::from_spec("none").unwrap(), FaultConfig::none());
        assert_eq!(FaultConfig::from_spec("light").unwrap(), FaultConfig::light());
        let c = FaultConfig::from_spec("heavy,crash=0").unwrap();
        assert_eq!(c.node_crash_prob, 0.0);
        assert_eq!(c.scale_fail_prob, FaultConfig::heavy().scale_fail_prob);
        let c = FaultConfig::from_spec("scale_fail=0.5,dropout=0.25").unwrap();
        assert_eq!(c.scale_fail_prob, 0.5);
        assert_eq!(c.metric_dropout_prob, 0.25);
        assert_eq!(c.anomaly_start_prob, 0.0);
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(FaultConfig::from_spec("mystery").is_err());
        assert!(FaultConfig::from_spec("crash=banana").is_err());
        assert!(FaultConfig::from_spec("crash=1.5").is_err());
        assert!(FaultConfig::from_spec("anomaly=0.1,anomaly_max=0").is_err());
        assert!(FaultConfig::from_spec("").is_err());
        assert!(FaultConfig::from_spec("unknown_key=1").is_err());
    }

    #[test]
    fn step_counts_refuse_what_is_not_a_whole_u32() {
        for spec in [
            "delay=0.1,delay_max=2.7",
            "delay=0.1,delay_max=1e12",
            "anomaly=0.1,anomaly_max=-3",
            "delay_max=NaN",
            "anomaly_max=inf",
        ] {
            let err = FaultConfig::from_spec(spec).expect_err(spec);
            let key = if spec.contains("delay_max") { "delay_max" } else { "anomaly_max" };
            assert!(err.contains(key), "{spec}: {err}");
        }
        let c = FaultConfig::from_spec("delay=0.1,delay_max=4294967295,anomaly_max=3.0").unwrap();
        assert_eq!((c.provision_delay_max_steps, c.anomaly_max_steps), (u32::MAX, 3));
    }

    #[test]
    fn spec_reads_back_as_the_config() {
        use rpas_tsmath::prop_assert_eq;
        use rpas_tsmath::propcheck::{forall, Gen};
        fn prob(g: &mut Gen) -> f64 {
            match g.usize_in(0, 4) {
                0 => 0.0,
                1 => 1.0,
                _ => g.f64_in(0.0, 1.0),
            }
        }
        fn steps(g: &mut Gen, least: u32) -> u32 {
            match g.usize_in(0, 3) {
                0 => u32::MAX,
                1 => (g.u64() as u32).max(least),
                _ => g.u32_in(least, 20),
            }
        }
        forall("spec_reads_back_as_the_config", 2_000, |g| {
            let cfg = match g.usize_in(0, 6) {
                0 => FaultConfig::light(),
                1 => FaultConfig::heavy(),
                2 => FaultConfig::none(),
                _ => {
                    let (delay, anomaly) = (prob(g), prob(g));
                    FaultConfig {
                        scale_fail_prob: prob(g),
                        provision_delay_prob: delay,
                        provision_delay_max_steps: steps(g, u32::from(delay > 0.0)),
                        node_crash_prob: prob(g),
                        metric_dropout_prob: prob(g),
                        anomaly_start_prob: anomaly,
                        anomaly_max_steps: steps(g, u32::from(anomaly > 0.0)),
                        anomaly_max_mult: 1.0 + g.f64_in(1e-9, 1e3),
                    }
                }
            };
            prop_assert_eq!(FaultConfig::from_spec(&cfg.spec()), Ok(cfg));
            Ok(())
        });
        assert_eq!(FaultConfig::light().spec(), "light");
        assert_eq!(FaultConfig::heavy().spec(), "heavy");
    }

    #[test]
    fn schedule_lines_are_valid_json_objects() {
        let p = FaultPlan::build(FaultConfig::heavy(), 9, 200);
        // A label is any text: JSON escapes, not Rust's, quote it.
        for label in ["heavy", "a \"quoted\"\\label\u{1b}µ"] {
            let jsonl = p.schedule_jsonl(Some(label));
            assert!(!jsonl.is_empty());
            for line in jsonl.lines() {
                let parsed = rpas_obs::json::parse(line).expect("schedule line parses as JSON");
                let obj = parsed.as_obj().expect("schedule line is an object");
                assert_eq!(obj.get("profile").and_then(|v| v.as_str()), Some(label));
                assert!(obj.contains_key("step"));
                assert!(obj.contains_key("kind"));
            }
        }
    }

    #[test]
    fn recovery_attributes_runs_near_faults() {
        let plan = FaultPlan::build(
            FaultConfig::from_spec("crash=1").unwrap(), // fault at every step
            1,
            10,
        );
        let violations = [false, true, true, false, false, true, false, false, false, false];
        let r = recovery_stats(&violations, &plan);
        assert_eq!(r.episodes, 2);
        assert_eq!(r.max_steps, 2);
        assert!((r.mean_steps - 1.5).abs() < 1e-12);
    }

    #[test]
    fn recovery_ignores_unattributable_runs() {
        let plan = FaultPlan::build(FaultConfig::none(), 1, 10);
        let violations = [false, true, true, true, false, false, false, false, false, false];
        let r = recovery_stats(&violations, &plan);
        assert_eq!(r.episodes, 0);
        assert_eq!(r.max_steps, 0);
        assert_eq!(r.mean_steps, 0.0);
    }
}
