//! Declarative SLOs with error budgets and multi-window burn-rate
//! alerting, in the RobustScaler/OptScaler framing: robustness is a
//! *continuously monitored* objective, not a one-shot backtest score.
//!
//! An [`SloSpec`] states a maximum bad-tick fraction (e.g. "violation
//! rate < 1%") and a set of [`BurnRule`]s. Evaluation consumes a
//! [`RatioSeries`] — per-tick `(bad, total)` counts keyed on sim ticks —
//! and produces an [`SloStatus`]: overall compliance, error-budget
//! remaining, and burn alerts. A burn alert fires at tick `t` when
//! **both** the long and the short trailing window burn at ≥ `factor`×
//! the objective (the standard multi-window construction: the long
//! window proves the burn is sustained, the short window proves it is
//! still happening). Audit events land on an [`Obs`] handle under the
//! `slo` span.

use rpas_obs::json::f64_string;
use rpas_obs::{catalog, Obs};
use std::borrow::Borrow;

/// One multi-window burn-rate rule, windows in sim ticks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnRule {
    /// Long (sustained) trailing window, in ticks.
    pub long: u64,
    /// Short (still-happening) trailing window, in ticks.
    pub short: u64,
    /// Alert when both windows burn at ≥ this multiple of the objective.
    pub factor: f64,
}

impl BurnRule {
    fn label(&self) -> String {
        format!("{}/{}x{}", self.long, self.short, f64_string(self.factor))
    }
}

/// A declarative objective over a bad-tick ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Objective name (`violation_rate`, ...).
    pub name: String,
    /// Maximum allowed bad fraction over the whole series (0 < objective ≤ 1).
    pub objective: f64,
    /// Burn-rate alerting rules (rules longer than the series are skipped).
    pub burn: Vec<BurnRule>,
}

impl SloSpec {
    /// Whether `evaluate` can run this spec: `0 < objective ≤ 1` and
    /// every burn rule has `0 < short ≤ long`. Holders of outside input
    /// (the fleet config a checkpoint embeds) report the `Err`;
    /// `evaluate` panics on it.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.objective > 0.0 && self.objective <= 1.0) {
            return Err(format!("objective must be in (0, 1], got {}", f64_string(self.objective)));
        }
        match self.burn.iter().find(|r| r.short == 0 || r.short > r.long) {
            Some(rule) => Err(format!("burn rule {} needs 0 < short ≤ long", rule.label())),
            None => Ok(()),
        }
    }

    /// The default fleet objective: violation rate below 1%, alerting on
    /// a fast burn (6h/1h at 6× budget speed) and a slow burn (1d/6h at
    /// 3×). Windows are in 10-minute sim ticks (144/day).
    pub fn violation_rate_default() -> SloSpec {
        SloSpec {
            name: "violation_rate".to_string(),
            objective: 0.01,
            burn: vec![
                BurnRule { long: 36, short: 6, factor: 6.0 },
                BurnRule { long: 144, short: 36, factor: 3.0 },
            ],
        }
    }

    /// Fleet availability under supervision: a tenant-tick is *bad* when
    /// the supervisor skipped it because the tenant was quarantined, so
    /// the ratio tracks the fraction of tenant-ticks not served by a live
    /// policy. Budget: at most 5% of tenant-ticks lost to quarantine —
    /// generous enough that a single poisoned tenant in a small fleet
    /// alerts through burn rate (its own ticks go 100% bad) without
    /// instantly exhausting the whole fleet's budget. Same multi-window
    /// burn shape as [`SloSpec::violation_rate_default`].
    pub fn fleet_availability_default() -> SloSpec {
        SloSpec {
            name: "fleet_availability".to_string(),
            objective: 0.05,
            burn: vec![
                BurnRule { long: 36, short: 6, factor: 6.0 },
                BurnRule { long: 144, short: 36, factor: 3.0 },
            ],
        }
    }
}

/// Per-tick `(bad, total)` counts. For one tenant each tick contributes
/// `(violation as u64, 1)`; fleet-wide series are element-wise merges.
#[derive(Debug, Clone, Default)]
pub struct RatioSeries {
    bad: Vec<u64>,
    total: Vec<u64>,
}

impl RatioSeries {
    /// Empty series.
    pub(crate) fn new() -> RatioSeries {
        RatioSeries::default()
    }

    /// One tick per flag: `true` → `(1, 1)`, `false` → `(0, 1)`.
    pub fn from_bools(flags: &[bool]) -> RatioSeries {
        RatioSeries {
            bad: flags.iter().map(|&f| u64::from(f)).collect(),
            total: vec![1; flags.len()],
        }
    }

    /// Element-wise add (extending to the longer of the two).
    pub(crate) fn merge(&mut self, other: &RatioSeries) {
        if other.len() > self.len() {
            self.bad.resize(other.len(), 0);
            self.total.resize(other.len(), 0);
        }
        for (i, (&b, &t)) in other.bad.iter().zip(&other.total).enumerate() {
            self.bad[i] += b;
            self.total[i] += t;
        }
    }

    /// Ticks covered.
    pub(crate) fn len(&self) -> usize {
        self.bad.len()
    }

    fn sums(&self) -> (u64, u64) {
        (self.bad.iter().sum(), self.total.iter().sum())
    }

    /// Running sums of `bad` and `total`, each with a leading zero.
    fn prefix_sums(&self) -> (Vec<u64>, Vec<u64>) {
        let mut pre_bad = vec![0u64; self.len() + 1];
        let mut pre_total = vec![0u64; self.len() + 1];
        for i in 0..self.len() {
            pre_bad[i + 1] = pre_bad[i] + self.bad[i];
            pre_total[i + 1] = pre_total[i] + self.total[i];
        }
        (pre_bad, pre_total)
    }

    /// Bad fraction over the trailing window `(end - len, end]`,
    /// via prefix sums; `None` when the window saw no totals.
    fn trailing_frac(&self, pre_bad: &[u64], pre_total: &[u64], end: usize, len: u64) -> Option<f64> {
        let lo = (end + 1).saturating_sub(len as usize);
        let bad = pre_bad[end + 1] - pre_bad[lo];
        let total = pre_total[end + 1] - pre_total[lo];
        if total == 0 {
            None
        } else {
            Some(bad as f64 / total as f64)
        }
    }
}

/// One fired burn-rate rule.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnAlert {
    /// The rule that fired.
    pub rule: BurnRule,
    /// First tick (0-based) at which both windows burned ≥ factor×.
    pub first_tick: u64,
    /// Number of ticks the alert was active.
    pub active_ticks: u64,
    /// Peak long-window burn rate (multiple of the objective) while active.
    pub peak_burn: f64,
}

/// Evaluation result for one subject (a tenant or the whole fleet).
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// Subject label (`t0000`, ..., or `fleet`).
    pub subject: String,
    /// Ticks evaluated.
    pub ticks: u64,
    /// Bad events over the series.
    pub bad: u64,
    /// Total events over the series.
    pub total: u64,
    /// `bad / total` (0 when the series saw no totals).
    pub bad_fraction: f64,
    /// Whether the overall fraction meets the objective.
    pub met: bool,
    /// Fraction of the error budget still unspent (1 = untouched,
    /// 0 = exactly spent, negative = blown).
    pub budget_remaining: f64,
    /// Fired burn rules, in spec order.
    pub alerts: Vec<BurnAlert>,
}

/// Evaluate `spec` for one subject and emit `slo/*` audit events.
///
/// Emits one `slo/status` info event per call, plus one `slo/burn_alert`
/// warn event per fired rule. Event content is a pure function of the
/// series, so traces stay byte-identical across reruns.
///
/// # Panics
/// Panics unless `0 < objective ≤ 1` and each rule has
/// `0 < short ≤ long`.
pub(crate) fn evaluate(
    spec: &SloSpec,
    subject: &str,
    series: &RatioSeries,
    obs: &Obs,
) -> SloStatus {
    assert_eq!(spec.validate(), Ok(()), "invalid SLO spec");
    let (bad, total) = series.sums();
    let bad_fraction = if total == 0 { 0.0 } else { bad as f64 / total as f64 };
    let met = bad_fraction <= spec.objective;
    let budget_remaining = 1.0 - bad_fraction / spec.objective;

    // Prefix sums at most once, by the first rule that has to scan;
    // every rule's trailing windows read from them.
    let mut prefix = None;
    let mut alerts = Vec::new();
    for rule in &spec.burn {
        if (rule.long as usize) > series.len() {
            continue; // rule window longer than the run: not evaluable
        }
        if bad == 0 && rule.factor > 0.0 {
            continue; // every window burns at 0×, below any positive factor
        }
        let (pre_bad, pre_total) = prefix.get_or_insert_with(|| series.prefix_sums());
        let mut first_tick = None;
        let mut active = 0u64;
        let mut peak = 0.0f64;
        for end in (rule.long as usize - 1)..series.len() {
            let long_frac = series.trailing_frac(pre_bad, pre_total, end, rule.long);
            let short_frac = series.trailing_frac(pre_bad, pre_total, end, rule.short);
            let (Some(lf), Some(sf)) = (long_frac, short_frac) else { continue };
            let long_burn = lf / spec.objective;
            let short_burn = sf / spec.objective;
            if long_burn >= rule.factor && short_burn >= rule.factor {
                first_tick.get_or_insert(end as u64);
                active += 1;
                peak = peak.max(long_burn);
            }
        }
        if let Some(first) = first_tick {
            alerts.push(BurnAlert { rule: *rule, first_tick: first, active_ticks: active, peak_burn: peak });
        }
    }

    let status = SloStatus {
        subject: subject.to_string(),
        ticks: series.len() as u64,
        bad,
        total,
        bad_fraction,
        met,
        budget_remaining,
        alerts,
    };

    obs.emit(catalog::SLO_STATUS, |e| {
        e.field("slo", spec.name.clone())
            .field("subject", subject.to_string())
            .field("ticks", status.ticks)
            .field("bad", status.bad)
            .field("total", status.total)
            .field("bad_fraction", status.bad_fraction)
            .field("objective", spec.objective)
            .field("met", status.met)
            .field("budget_remaining", status.budget_remaining);
    });
    for a in &status.alerts {
        obs.emit(catalog::SLO_BURN_ALERT, |e| {
            e.field("slo", spec.name.clone())
                .field("subject", subject.to_string())
                .field("rule", a.rule.label())
                .field("first_tick", a.first_tick)
                .field("active_ticks", a.active_ticks)
                .field("peak_burn", a.peak_burn);
        });
    }
    status
}

/// A rendered-ready fleet SLO evaluation: one status per tenant plus the
/// fleet-wide merge.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// The evaluated objective.
    pub spec: SloSpec,
    /// Per-tenant statuses, in tenant order.
    pub tenants: Vec<SloStatus>,
    /// Status of the merged fleet-wide series.
    pub fleet: SloStatus,
}

impl SloReport {
    /// Evaluate `spec` for every `(subject, series)` pair and for their
    /// fleet-wide merge, emitting `slo/*` events for each subject.
    ///
    /// `subjects` is a slice of pairs or an iterator that builds them on
    /// demand; each pair is dropped before the next is asked for, so a
    /// lazy caller never holds more than one tenant's series.
    pub fn evaluate<I>(spec: &SloSpec, subjects: I, obs: &Obs) -> SloReport
    where
        I: IntoIterator,
        I::Item: Borrow<(String, RatioSeries)>,
    {
        let subjects = subjects.into_iter();
        let mut fleet_series = RatioSeries::new();
        let mut tenants = Vec::with_capacity(subjects.size_hint().0);
        for pair in subjects {
            let (subject, series) = pair.borrow();
            fleet_series.merge(series);
            tenants.push(evaluate(spec, subject, series, obs));
        }
        let fleet = evaluate(spec, "fleet", &fleet_series, obs);
        SloReport { spec: spec.clone(), tenants, fleet }
    }

    /// Deterministic text rendering (byte-identical across reruns and
    /// thread counts): a header, one row per tenant, and a fleet row.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "SLO {} — objective: bad fraction <= {:.2}%\n",
            self.spec.name,
            self.spec.objective * 100.0
        ));
        let rules: Vec<String> =
            self.spec.burn.iter().map(|r| format!("[{}]", r.label())).collect();
        out.push_str(&format!(
            "burn rules (long/short ticks x factor): {}\n",
            if rules.is_empty() { "none".to_string() } else { rules.join(" ") }
        ));
        out.push_str(&format!(
            "{:<8} {:>6} {:>6} {:>8} {:>9}  {:<6} alerts\n",
            "subject", "ticks", "bad", "bad%", "budget%", "status"
        ));
        for s in self.tenants.iter().chain(std::iter::once(&self.fleet)) {
            out.push_str(&render_row(s));
        }
        out
    }
}

fn render_row(s: &SloStatus) -> String {
    let alerts = if s.alerts.is_empty() {
        "-".to_string()
    } else {
        s.alerts
            .iter()
            .map(|a| {
                format!(
                    "burn[{}]@t{}({} ticks, peak {:.1})",
                    a.rule.label(),
                    a.first_tick,
                    a.active_ticks,
                    a.peak_burn
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!(
        "{:<8} {:>6} {:>6} {:>7.2}% {:>8.1}%  {:<6} {}\n",
        s.subject,
        s.ticks,
        s.bad,
        s.bad_fraction * 100.0,
        s.budget_remaining * 100.0,
        if s.met { "OK" } else { "BREACH" },
        alerts
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(objective: f64, burn: Vec<BurnRule>) -> SloSpec {
        SloSpec { name: "violation_rate".to_string(), objective, burn }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn clean_series_meets_objective_with_full_budget() {
        let s = RatioSeries::from_bools(&[false; 100]);
        let st = evaluate(&spec(0.01, vec![]), "t0000", &s, &Obs::noop());
        assert!(st.met);
        assert!(close(st.budget_remaining, 1.0));
        assert!(st.alerts.is_empty());
        assert_eq!((st.bad, st.total), (0, 100));
    }

    #[test]
    fn budget_accounting_and_breach() {
        // 5 bad of 100 against a 1% objective: 5× over budget.
        let mut flags = [false; 100];
        for f in flags.iter_mut().take(5) {
            *f = true;
        }
        let st = evaluate(&spec(0.01, vec![]), "x", &RatioSeries::from_bools(&flags), &Obs::noop());
        assert!(!st.met);
        assert!(close(st.bad_fraction, 0.05));
        assert!(close(st.budget_remaining, -4.0));
    }

    #[test]
    fn burn_alert_requires_both_windows() {
        // Objective 10%; rule: long 10, short 2, factor 2 (alert when
        // both windows burn ≥ 20% bad). A burst of 4 bad ticks inside a
        // 20-tick run trips the long window only while the short window
        // still covers the burst.
        let mut flags = [false; 20];
        for f in flags.iter_mut().skip(8).take(4) {
            *f = true;
        }
        let rule = BurnRule { long: 10, short: 2, factor: 2.0 };
        let st = evaluate(&spec(0.10, vec![rule]), "x", &RatioSeries::from_bools(&flags), &Obs::noop());
        assert_eq!(st.alerts.len(), 1);
        let a = &st.alerts[0];
        // Long window first reaches 2 bad/10 at end=9; short window
        // (ticks 8,9) is 100% bad → both fire at tick 9.
        assert_eq!(a.first_tick, 9);
        assert!(a.active_ticks >= 3);
        assert!(a.peak_burn >= 2.0);
        // After the burst leaves the short window the alert clears, so
        // it never spans the whole tail.
        assert!(a.active_ticks < 10);
    }

    #[test]
    fn rules_longer_than_series_are_skipped() {
        let s = RatioSeries::from_bools(&[true; 5]);
        let rule = BurnRule { long: 100, short: 10, factor: 1.0 };
        let st = evaluate(&spec(0.01, vec![rule]), "x", &s, &Obs::noop());
        assert!(st.alerts.is_empty());
        assert!(!st.met);
    }

    /// `evaluate` as it was before series with no bad tick skipped the
    /// scan: prefix sums always, every evaluable rule walked. Kept as the
    /// reference (it emits nothing; events are built from the status).
    fn evaluate_scanning_everything(spec: &SloSpec, subject: &str, series: &RatioSeries) -> SloStatus {
        let (bad, total) = series.sums();
        let bad_fraction = if total == 0 { 0.0 } else { bad as f64 / total as f64 };
        let mut pre_bad = vec![0u64; series.len() + 1];
        let mut pre_total = vec![0u64; series.len() + 1];
        for i in 0..series.len() {
            pre_bad[i + 1] = pre_bad[i] + series.bad[i];
            pre_total[i + 1] = pre_total[i] + series.total[i];
        }
        let mut alerts = Vec::new();
        for rule in &spec.burn {
            if (rule.long as usize) > series.len() {
                continue;
            }
            let mut first_tick = None;
            let mut active = 0u64;
            let mut peak = 0.0f64;
            for end in (rule.long as usize - 1)..series.len() {
                let long_frac = series.trailing_frac(&pre_bad, &pre_total, end, rule.long);
                let short_frac = series.trailing_frac(&pre_bad, &pre_total, end, rule.short);
                let (Some(lf), Some(sf)) = (long_frac, short_frac) else { continue };
                let long_burn = lf / spec.objective;
                let short_burn = sf / spec.objective;
                if long_burn >= rule.factor && short_burn >= rule.factor {
                    first_tick.get_or_insert(end as u64);
                    active += 1;
                    peak = peak.max(long_burn);
                }
            }
            if let Some(first) = first_tick {
                alerts.push(BurnAlert { rule: *rule, first_tick: first, active_ticks: active, peak_burn: peak });
            }
        }
        SloStatus {
            subject: subject.to_string(),
            ticks: series.len() as u64,
            bad,
            total,
            bad_fraction,
            met: bad_fraction <= spec.objective,
            budget_remaining: 1.0 - bad_fraction / spec.objective,
            alerts,
        }
    }

    /// Every float of a status as bits, so `-0.0`/`0.0` cannot pass for equal.
    fn float_bits(st: &SloStatus) -> Vec<u64> {
        [st.bad_fraction, st.budget_remaining]
            .into_iter()
            .chain(st.alerts.iter().map(|a| a.peak_burn))
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn early_out_matches_the_full_scan() {
        use rpas_tsmath::propcheck::forall;
        use rpas_tsmath::prop_assert_eq;

        forall("early_out_matches_the_full_scan", 256, |g| {
            // Empty, all-clean, one bad tick, sparse and dense series, as one
            // tenant's flags or a merged fleet's counts, with and without
            // ticks nobody reported (`total == 0`).
            let len = if g.usize_in(0, 12) == 0 { 0 } else { g.usize_in(1, 220) };
            let bad_rate = [0.0, 0.0, 0.02, 0.3, 0.9][g.usize_in(0, 5)];
            let one_bad = (g.usize_in(0, 5) == 0).then(|| g.usize_in(0, len.max(1)));
            let (fleet, gaps) = (g.usize_in(0, 2) == 1, g.usize_in(0, 3) == 0);
            let mut series = RatioSeries::new();
            for t in 0..len {
                let total = match (gaps && g.usize_in(0, 4) == 0, fleet) {
                    (true, _) => 0,
                    (false, true) => g.usize_in(1, 5) as u64,
                    (false, false) => 1,
                };
                let bad = (0..total).filter(|_| g.f64_in(0.0, 1.0) < bad_rate).count() as u64;
                series.bad.push(if one_bad == Some(t) { total.min(1) } else { bad });
                series.total.push(total);
            }
            // Rules shorter and longer than the series; a zero factor fires
            // on a clean series and must keep taking the scan.
            let burn = (0..g.usize_in(0, 4))
                .map(|_| {
                    let long = g.usize_in(1, 260) as u64;
                    BurnRule {
                        long,
                        short: g.usize_in(1, long as usize + 1) as u64,
                        factor: [0.0, 0.5, 1.0, 3.0, 6.0, 14.4][g.usize_in(0, 6)],
                    }
                })
                .collect();
            let spec = spec(g.f64_in(0.001, 1.0), burn);

            let got = evaluate(&spec, "x", &series, &Obs::noop());
            let want = evaluate_scanning_everything(&spec, "x", &series);
            prop_assert_eq!(got, want);
            prop_assert_eq!(float_bits(&got), float_bits(&want));
            Ok(())
        });
    }

    #[test]
    fn zero_factor_rule_fires_on_a_clean_series() {
        let rule = BurnRule { long: 4, short: 2, factor: 0.0 };
        let clean = RatioSeries::from_bools(&[false; 10]);
        let st = evaluate(&spec(0.05, vec![rule]), "x", &clean, &Obs::noop());
        assert_eq!(
            st.alerts,
            vec![BurnAlert { rule, first_tick: 3, active_ticks: 7, peak_burn: 0.0 }]
        );
    }

    #[test]
    fn merge_extends_and_adds() {
        let mut fleet = RatioSeries::new();
        fleet.merge(&RatioSeries::from_bools(&[true, false]));
        fleet.merge(&RatioSeries::from_bools(&[false, true, true]));
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet.sums(), (3, 5));
    }

    #[test]
    fn report_renders_deterministically_with_fleet_row() {
        let subjects = vec![
            ("t0000".to_string(), RatioSeries::from_bools(&[false; 10])),
            ("t0001".to_string(), RatioSeries::from_bools(&[true; 10])),
        ];
        let spec = spec(0.5, vec![]);
        let r1 = SloReport::evaluate(&spec, &subjects, &Obs::noop());
        let r2 = SloReport::evaluate(&spec, &subjects, &Obs::noop());
        assert_eq!(r1.render(), r2.render());
        assert_eq!(r1.fleet.total, 20);
        assert_eq!(r1.fleet.bad, 10);
        assert!(r1.render().contains("fleet"));
        assert!(r1.render().contains("BREACH"));
        assert!(r1.render().contains("OK"));
    }

    #[test]
    fn slo_events_are_emitted_through_obs() {
        let mem = rpas_obs::MemorySink::new();
        let obs = Obs::with_sink(Box::new(mem.clone()));
        let mut flags = [false; 20];
        for f in flags.iter_mut().take(10) {
            *f = true;
        }
        let rule = BurnRule { long: 4, short: 2, factor: 1.5 };
        evaluate(&spec(0.10, vec![rule]), "t0007", &RatioSeries::from_bools(&flags), &obs);
        let events = mem.drain();
        let statuses: Vec<_> = events.iter().filter(|e| e.is(catalog::SLO_STATUS)).collect();
        let alerts: Vec<_> = events.iter().filter(|e| e.is(catalog::SLO_BURN_ALERT)).collect();
        assert_eq!(statuses.len(), 1);
        assert_eq!(alerts.len(), 1);
        assert_eq!(
            statuses[0].get("subject"),
            Some(rpas_obs::Value::Str("t0007".into()))
        );
    }
}
