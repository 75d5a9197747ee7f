//! Auto-scaling experiments: Figs. 5 and 9–12 and the staircase ablation.

use super::{score, uncertainties, vs, windows, Named, Report, Scope, Shape, THETA};
use crate::models::{self, fitted, Fitted};
use crate::output::{f, labelled};
use crate::{datasets, write_csv, ExperimentProfile, Table};
use rpas_core::ScalingStrategy::{Adaptive, Fixed, Staircase};
use rpas_core::{
    evaluate_plans_point, evaluate_reactive, AdaptiveConfig, ReactiveAvg, ReactiveMax,
    StaircaseLevel,
};
use rpas_forecast::{PaddedForecaster, PointForecaster, PointFromQuantile, SCALING_LEVELS};
use rpas_metrics::ProvisioningReport;
use rpas_par::WorkerPool;
use rpas_simdb::{ScalingPolicy, WarmupModel};
use rpas_tsmath::stats::{median, quantile};

/// DeepAR and TFT on the scaling grid — the two models the scaling
/// figures plan with — fitted on `train` side by side.
pub(super) fn scaling_models(p: &ExperimentProfile, train: &[f64]) -> Vec<Fitted> {
    WorkerPool::for_jobs(2).map_indexed(2, |i| -> Fitted {
        match i {
            0 => Box::new(fitted(models::deepar(p, 1), train)),
            _ => Box::new(fitted(models::tft(p, &SCALING_LEVELS, 1), train)),
        }
    })
}

type Rate = fn(&ProvisioningReport) -> f64;
const UNDER: Rate = |r| r.under_rate;
const OVER: Rate = |r| r.over_rate;

/// One rate of each report, as a CSV column.
fn column<'a>(reports: impl IntoIterator<Item = &'a ProvisioningReport>, rate: Rate) -> Vec<f64> {
    reports.into_iter().map(rate).collect()
}

/// Table rows of a label column followed by the other columns' values.
fn rows_of(
    table: &mut Table,
    labels: impl Iterator<Item = String>,
    columns: &[(String, Vec<f64>)],
) {
    for (i, label) in labels.enumerate() {
        table.row(labelled(label, &columns.iter().map(|(_, c)| c[i]).collect::<Vec<_>>()));
    }
}

/// **Fig. 5** — scale-out overhead: the simulator's warm-up model
/// (rebuilding in-memory components from a checkpoint) across checkpoint
/// sizes, `(GB, seconds)`.
pub(crate) struct Fig5(Vec<f64>, Vec<f64>);

/// The scaling interval a warm-up is weighed against: 10 minutes.
const INTERVAL_SECS: f64 = 600.0;

pub(crate) fn fig5() -> Fig5 {
    let sizes_gb = vec![0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
    let warmup = sizes_gb.iter().map(|&gb| WarmupModel::default().warmup_secs(gb)).collect();
    Fig5(sizes_gb, warmup)
}

impl Report for Fig5 {
    fn render(&self) {
        let mut t = Table::new(["checkpoint (GB)", "warm-up (s)", "fraction of a 10-min interval"]);
        for (gb, w) in self.0.iter().zip(&self.1) {
            t.row(vec![f(*gb), f(*w), format!("{:.2}%", w / INTERVAL_SECS * 100.0)]);
        }
        t.print("Fig. 5 — scale-out overhead (checkpoint rebuild model)");
        write_csv("fig5.csv", &[("checkpoint_gb", &self.0), ("warmup_secs", &self.1)]);
    }

    fn shapes(&self) -> Vec<Shape> {
        let (s, w) = (&self.0, &self.1);
        let slope = (w[1] - w[0]) / (s[1] - s[0]);
        let affine =
            s.iter().zip(w).all(|(&si, &wi)| (w[0] + slope * (si - s[0]) - wi).abs() <= 1e-9 * wi);
        let worst = w.iter().copied().fold(0.0, f64::max) / INTERVAL_SECS;
        let fit = format!("{} s + {} s/GB", f(w[0] - slope * s[0]), f(slope));
        vec![
            Shape::new(
                Scope::Both,
                affine,
                format!("fig5: warm-up is affine in checkpoint size ({fit})"),
            ),
            Shape::new(
                Scope::Both,
                worst <= 0.06,
                format!("fig5: warm-up ≤ 6% of a 600 s interval ({:.2}%)", worst * 100.0),
            ),
        ]
    }
}

/// **Fig. 9** — under-provisioning of every scaler family on both traces:
/// reactive, point-forecast (with and without CloudScale-style padding) and
/// the robust DeepAR-τ / TFT-τ quantile scalers.
pub(crate) struct Fig9(Named<Vec<Scaler>>);

pub(crate) struct Scaler {
    name: String,
    /// The level a robust quantile scaler plans at; `None` for the rest.
    tau: Option<f64>,
    report: ProvisioningReport,
}

/// One independent scaler family: fit its model(s) and return its rows in
/// display order.
type ScalerJob<'a> = Box<dyn Fn() -> Vec<Scaler> + Send + Sync + 'a>;

/// A point forecaster at horizon `h` behind CloudScale-style padding.
fn padded<P: PointForecaster>(inner: P, name: &'static str, h: usize) -> PaddedForecaster<P> {
    PaddedForecaster::new(inner, name, 6 * h, 0.95)
}

#[expect(clippy::expect_used, reason = "an experiment cannot run without its fitted models")]
pub(crate) fn fig9(p: &ExperimentProfile) -> Fig9 {
    let traces = datasets(p).into_iter().map(|ds| {
        let (train, test) = (&ds.train, &ds.test);
        let row = |name: &str, report| Scaler { name: name.to_string(), tau: None, report };
        let reactive = |name, policy: &mut dyn ScalingPolicy| {
            row(name, evaluate_reactive(policy, test, THETA, 1))
        };
        let point = |fc: &mut dyn PointForecaster| {
            row(fc.name(), evaluate_plans_point(fc, test, p.context, p.horizon, THETA, 1))
        };
        let qb5000 = || {
            let mut qb = models::qb5000(p, 1);
            qb.fit(train).expect("qb5000 fit");
            qb
        };
        // TFT-point: TFT trained to output only the 0.5 quantile.
        let tft_point =
            || PointFromQuantile::new(fitted(models::tft(p, &[0.5], 1), train), "tft-point");
        let quantile = || {
            let models = scaling_models(p, train);
            let forecasts: Vec<_> = models
                .iter()
                .map(|m| (m.name(), windows(m.as_ref(), test, p, &SCALING_LEVELS)))
                .collect();
            let mut rows = Vec::new();
            for tau in [0.6, 0.8, 0.9, 0.95] {
                for (model, w) in &forecasts {
                    let report = score(w, p, Fixed { tau });
                    rows.push(Scaler { name: format!("{model}-{tau}"), tau: Some(tau), report });
                }
            }
            rows
        };
        // Every family trains and evaluates independently, so the figure
        // fans out over the worker pool; per-family seeds are fixed, so the
        // table is identical at any thread count.
        let jobs: Vec<ScalerJob<'_>> = vec![
            Box::new(|| {
                vec![
                    reactive("reactive-max", &mut ReactiveMax::new(6)),
                    reactive("reactive-avg", &mut ReactiveAvg::paper_default()),
                ]
            }),
            Box::new(|| vec![point(&mut qb5000())]),
            Box::new(|| vec![point(&mut padded(qb5000(), "qb5000-padding", p.horizon))]),
            Box::new(|| vec![point(&mut tft_point())]),
            Box::new(|| vec![point(&mut padded(tft_point(), "tft-point-padding", p.horizon))]),
            Box::new(quantile),
        ];
        let rows = WorkerPool::for_jobs(jobs.len()).map_indexed(jobs.len(), |i| jobs[i]());
        (ds.name, rows.into_iter().flatten().collect())
    });
    Fig9(traces.collect())
}

impl Report for Fig9 {
    #[expect(clippy::print_stdout, reason = "the index map keys fig9's CSV rows")]
    fn render(&self) {
        for (trace, scalers) in &self.0 {
            let mut table =
                Table::new(["scaler", "under-prov rate", "over-prov rate", "avg nodes"]);
            for Scaler { name, report: r, .. } in scalers {
                table.row(labelled(name.clone(), &[r.under_rate, r.over_rate, r.avg_allocated]));
            }
            table.print(&format!("Fig. 9 — under-provisioning comparison, {trace} trace"));
            let reports = || scalers.iter().map(|s| &s.report);
            let index = (0..scalers.len()).map(|i| i as f64).collect();
            let columns = [
                ("scaler_index", index),
                ("under_rate", column(reports(), UNDER)),
                ("over_rate", column(reports(), OVER)),
            ];
            write_csv(&format!("fig9_{trace}.csv"), &columns);
            let names: Vec<&str> = scalers.iter().map(|s| s.name.as_str()).collect();
            println!("scaler index map: {}", names.join(", "));
        }
    }

    fn shapes(&self) -> Vec<Shape> {
        let mut out = Vec::new();
        for (trace, scalers) in &self.0 {
            let under = |keep: fn(&Scaler) -> bool| {
                scalers.iter().filter(move |s| keep(s)).map(|s| s.report.under_rate)
            };
            let robust: fn(&Scaler) -> bool = |s| s.tau.is_some_and(|tau| tau >= 0.9);
            let best = under(|_| true).fold(f64::INFINITY, f64::min);
            let best_robust = under(robust).fold(f64::INFINITY, f64::min);
            let worst_robust = under(robust).fold(f64::NAN, f64::max);
            let reactive_avg = under(|s| s.name == "reactive-avg").fold(f64::NAN, f64::max);
            let lowest = vs(best_robust, best);
            let claim = format!(
                "fig9 {trace}: a τ ≥ 0.9 quantile scaler has the lowest under-rate ({lowest})"
            );
            out.push(Shape::new(Scope::Both, best_robust <= best, claim));
            let beats = vs(worst_robust, reactive_avg);
            let claim = format!(
                "fig9 {trace}: every τ ≥ 0.9 quantile scaler under-provisions less than \
                 reactive-avg ({beats})"
            );
            out.push(Shape::new(Scope::Both, worst_robust < reactive_avg, claim));
        }
        out
    }
}

/// **Fig. 10** — under- and over-provisioning of DeepAR and TFT planning at
/// each fixed τ of the scaling grid; per trace, `(model, one report per τ)`.
pub(crate) struct Fig10(Named<Named<Vec<ProvisioningReport>>>);

pub(crate) fn fig10(p: &ExperimentProfile) -> Fig10 {
    let traces = datasets(p).into_iter().map(|ds| {
        let sweep = |m: &Fitted| {
            // Forecast every window once; the τ sweep reuses them.
            let w = windows(m.as_ref(), &ds.test, p, &SCALING_LEVELS);
            let plan = |&tau: &f64| score(&w, p, Fixed { tau });
            (m.name(), SCALING_LEVELS.iter().map(plan).collect())
        };
        (ds.name, scaling_models(p, &ds.train).iter().map(sweep).collect())
    });
    Fig10(traces.collect())
}

impl Report for Fig10 {
    fn render(&self) {
        for (trace, models) in &self.0 {
            let mut columns = vec![("tau".to_string(), SCALING_LEVELS.to_vec())];
            for (model, sweep) in models {
                columns.extend([
                    (format!("{model} under"), column(sweep, UNDER)),
                    (format!("{model} over"), column(sweep, OVER)),
                ]);
            }
            let mut table = Table::new(columns.iter().map(|(name, _)| name.clone()));
            rows_of(&mut table, SCALING_LEVELS.iter().map(f64::to_string), &columns[1..]);
            table.print(&format!("Fig. 10 — rates across quantile levels, {trace} trace"));
            let csv: Vec<_> =
                columns.into_iter().map(|(name, c)| (name.replace(' ', "_"), c)).collect();
            write_csv(&format!("fig10_{trace}.csv"), &csv);
        }
    }

    fn shapes(&self) -> Vec<Shape> {
        let mut out = Vec::new();
        for (trace, models) in &self.0 {
            for (model, sweep) in models {
                let monotone = sweep.windows(2).all(|w| {
                    w[1].under_rate <= w[0].under_rate && w[1].over_rate >= w[0].over_rate
                });
                let (a, b) = (&sweep[0], &sweep[sweep.len() - 1]);
                let moved = b.under_rate < a.under_rate && b.over_rate > a.over_rate;
                let (under, over) = (vs(a.under_rate, b.under_rate), vs(a.over_rate, b.over_rate));
                let claim = format!(
                    "fig10 {trace} {model}: under never rises and over never falls in τ, and both move \
                     from τ = 0.5 to 0.99 (under {under}, over {over})"
                );
                out.push(Shape::new(Scope::Both, monotone && moved, claim));
            }
        }
        out
    }
}

/// **Fig. 11** — Algorithm 1's under- and over-provisioning for every pair
/// τ₁ ≤ τ₂ of the scaling grid, DeepAR and TFT on the Google-like trace at
/// ρ = median U; the diagonal τ₁ = τ₂ is the fixed-τ method.
pub(crate) struct Fig11(Vec<Heatmap>);

pub(crate) struct Heatmap {
    model: &'static str,
    rho: f64,
    /// `(τ₁, τ₂, report)` for every τ₁ ≤ τ₂, τ₁-major.
    cells: Vec<(f64, f64, ProvisioningReport)>,
}

impl Heatmap {
    fn cell(&self, tau1: f64, tau2: f64) -> Option<&ProvisioningReport> {
        self.cells.iter().find(|c| (c.0, c.1) == (tau1, tau2)).map(|c| &c.2)
    }
}

pub(crate) fn fig11(p: &ExperimentProfile) -> Fig11 {
    let ds = &datasets(p)[1]; // Google trace: richest uncertainty structure
    let heatmap = |m: &Fitted| {
        // Forecast every test window once; all 28 cells reuse them.
        let w = windows(m.as_ref(), &ds.test, p, &SCALING_LEVELS);
        let rho = median(&uncertainties(&w));
        let mut cells = Vec::new();
        for (i, &t1) in SCALING_LEVELS.iter().enumerate() {
            for &t2 in &SCALING_LEVELS[i..] {
                let cell = score(&w, p, Adaptive(AdaptiveConfig::new(t1, t2, rho)));
                cells.push((t1, t2, cell));
            }
        }
        Heatmap { model: m.name(), rho, cells }
    };
    Fig11(scaling_models(p, &ds.train).iter().map(heatmap).collect())
}

impl Report for Fig11 {
    #[expect(clippy::print_stdout, reason = "ρ heads each model's heatmaps")]
    fn render(&self) {
        for h in &self.0 {
            let rho = f(h.rho);
            println!("\n{}: uncertainty threshold ρ = {rho} (median U over test windows)", h.model);
            let mut under = Table::new(
                std::iter::once("τ1\\τ2".to_string()).chain(SCALING_LEVELS.map(|t| t.to_string())),
            );
            let mut over = under.clone();
            for &t1 in &SCALING_LEVELS {
                let row = |rate: Rate| {
                    let cells = SCALING_LEVELS
                        .iter()
                        .map(|&t2| h.cell(t1, t2).map_or("·".into(), |r| f(rate(r))));
                    std::iter::once(t1.to_string()).chain(cells).collect()
                };
                under.row(row(UNDER));
                over.row(row(OVER));
            }
            under.print(&format!("Fig. 11 — {}: under-provisioning heatmap (google)", h.model));
            over.print(&format!("Fig. 11 — {}: over-provisioning heatmap (google)", h.model));
            let tau = |pick: fn(&(f64, f64, ProvisioningReport)) -> f64| {
                h.cells.iter().map(pick).collect::<Vec<_>>()
            };
            let reports = || h.cells.iter().map(|c| &c.2);
            let columns = [
                ("tau1", tau(|c| c.0)),
                ("tau2", tau(|c| c.1)),
                ("under", column(reports(), UNDER)),
                ("over", column(reports(), OVER)),
            ];
            write_csv(&format!("fig11_{}.csv", h.model), &columns);
        }
    }

    fn shapes(&self) -> Vec<Shape> {
        let between = |r: &ProvisioningReport, a: &ProvisioningReport, b: &ProvisioningReport| {
            [UNDER, OVER]
                .iter()
                .all(|rate| rate(a).min(rate(b)) <= rate(r) && rate(r) <= rate(a).max(rate(b)))
        };
        let shape = |h: &Heatmap| {
            let anchored = |&(t1, t2, ref r): &(f64, f64, ProvisioningReport)| {
                Some(between(r, h.cell(t1, t1)?, h.cell(t2, t2)?))
            };
            let off_diagonal: Vec<_> = h.cells.iter().filter(|c| c.0 < c.1).map(anchored).collect();
            let outside = off_diagonal.iter().filter(|&&ok| ok != Some(true)).count();
            let count = format!("{outside} of {} outside", off_diagonal.len());
            let claim = format!(
                "fig11 {}: off-diagonal cells lie between their τ₁ and τ₂ anchors ({count})",
                h.model
            );
            Shape::new(Scope::Both, outside == 0, claim)
        };
        self.0.iter().map(shape).collect()
    }
}

/// **Fig. 12** — sensitivity to the uncertainty threshold ρ: TFT on the
/// Google-like trace, three (τ₁, τ₂) pairs, ρ swept over U's deciles and one
/// step past its maximum.
pub(crate) struct Fig12 {
    /// U's 0.0, 0.1, …, 1.0 quantiles, then the smallest `f64` above max U.
    rho: Vec<f64>,
    sweeps: Vec<RhoSweep>,
}

/// `((τ₁, τ₂), one report per ρ, [fixed-τ₁, fixed-τ₂] reports)`.
type RhoSweep = ((f64, f64), Vec<ProvisioningReport>, [ProvisioningReport; 2]);

pub(crate) fn fig12(p: &ExperimentProfile) -> Fig12 {
    let ds = &datasets(p)[1]; // Google trace, as in the paper
    let tft = fitted(models::tft(p, &SCALING_LEVELS, 1), &ds.train);
    // Forecast every test window once; the whole sweep reuses them.
    let w = windows(&tft, &ds.test, p, &SCALING_LEVELS);
    let us = uncertainties(&w);
    let mut rho: Vec<f64> = (0..=10).map(|i| quantile(&us, i as f64 / 10.0)).collect();
    // Algorithm 1 sends U ≥ ρ to τ₂, so only a ρ above max U plans all-τ₁.
    rho.push(rho[10].next_up());
    let plan = |strategy| score(&w, p, strategy);
    let sweep = |(t1, t2): (f64, f64)| {
        let reports = rho.iter().map(|&r| plan(Adaptive(AdaptiveConfig::new(t1, t2, r)))).collect();
        ((t1, t2), reports, [t1, t2].map(|tau| plan(Fixed { tau })))
    };
    let sweeps = [(0.5, 0.9), (0.8, 0.95), (0.9, 0.99)].map(sweep).into();
    Fig12 { rho, sweeps }
}

impl Report for Fig12 {
    fn render(&self) {
        let mut headers = vec!["rho".to_string()];
        let mut columns = vec![("rho".to_string(), self.rho.clone())];
        for ((t1, t2), reports, _) in &self.sweeps {
            headers.extend([format!("({t1},{t2}) under"), format!("({t1},{t2}) over")]);
            columns.extend([
                (format!("under_{t1}_{t2}"), column(reports, UNDER)),
                (format!("over_{t1}_{t2}"), column(reports, OVER)),
            ]);
        }
        let mut table = Table::new(headers);
        rows_of(&mut table, self.rho.iter().map(|&rho| f(rho)), &columns[1..]);
        table.print("Fig. 12 — sensitivity to the uncertainty threshold ρ (google, TFT)");
        write_csv("fig12.csv", &columns);
    }

    fn shapes(&self) -> Vec<Shape> {
        let reproduces = |at: &str, end: usize, fixed: usize| {
            let n = self.sweeps.iter().filter(|(_, reports, f)| reports[end] == f[fixed]).count();
            let all = self.sweeps.len();
            let claim = format!(
                "fig12: at ρ {at} every pair reproduces fixed-τ{} ({n} of {all})",
                fixed + 1
            );
            Shape::new(Scope::Both, n == all, claim)
        };
        vec![reproduces("= min U", 0, 1), reproduces("> max U", self.rho.len() - 1, 0)]
    }
}

/// **Staircase ablation** (DESIGN.md §5) — DeepAR on the Google-like trace
/// under fixed τ, Algorithm 1's two levels, and 3- and 5-rung staircases
/// with rungs at U quantiles; `(strategy, report)` in display order.
pub(crate) struct AblationStaircase(Named<ProvisioningReport>);

pub(crate) fn ablation_staircase(p: &ExperimentProfile) -> AblationStaircase {
    let ds = &datasets(p)[1]; // Google trace
    let deepar = fitted(models::deepar(p, 1), &ds.train);
    // Forecast every test window once: the rungs and every strategy reuse
    // them.
    let w = windows(&deepar, &ds.test, p, &SCALING_LEVELS);
    let us = uncertainties(&w);
    let q = |x: f64| quantile(&us, x);
    let rung = |&(min_uncertainty, tau): &(f64, f64)| StaircaseLevel { min_uncertainty, tau };
    let rungs = |ladder: &[(f64, f64)]| Staircase(ladder.iter().map(rung).collect());
    let strategies = [
        ("fixed-0.8", Fixed { tau: 0.8 }),
        ("fixed-0.95", Fixed { tau: 0.95 }),
        ("adaptive-2 (0.8/0.95)", Adaptive(AdaptiveConfig::new(0.8, 0.95, q(0.5)))),
        ("staircase-3", rungs(&[(0.0, 0.8), (q(0.33), 0.9), (q(0.66), 0.95)])),
        (
            "staircase-5",
            rungs(&[(0.0, 0.7), (q(0.2), 0.8), (q(0.4), 0.9), (q(0.6), 0.95), (q(0.8), 0.99)]),
        ),
    ];
    AblationStaircase(
        strategies.map(|(name, s)| (name, score(&w, p, s))).into(),
    )
}

impl AblationStaircase {
    #[expect(clippy::expect_used, reason = "every name asked for is one of its rows")]
    fn report(&self, strategy: &str) -> &ProvisioningReport {
        self.0.iter().find(|(name, _)| *name == strategy).map(|(_, r)| r).expect("a staircase row")
    }
}

impl Report for AblationStaircase {
    fn render(&self) {
        let baseline = self.report("fixed-0.95").avg_allocated;
        let mut table =
            Table::new(["strategy", "under-prov", "over-prov", "avg nodes", "nodes vs fixed-0.95"]);
        let mut columns = Vec::new();
        for (name, r) in &self.0 {
            let values = [r.under_rate, r.over_rate, r.avg_allocated];
            let mut row = labelled(*name, &values);
            row.push(format!("{:+.1}%", (r.avg_allocated / baseline - 1.0) * 100.0));
            table.row(row);
            columns.push((name.replace(' ', "_"), values));
        }
        table.print("Staircase ablation — DeepAR on google trace");
        write_csv("ablation_staircase.csv", &columns);
    }

    fn shapes(&self) -> Vec<Shape> {
        // Whether `a` is no worse than `b` on under-provisioning and nodes,
        // and better on one; with the numbers it rests on.
        let dominates = |a: &str, b: &str| {
            let (a, b) = (self.report(a), self.report(b));
            let (under, nodes) = ((a.under_rate, b.under_rate), (a.avg_allocated, b.avg_allocated));
            let no_worse = under.0 <= under.1 && nodes.0 <= nodes.1;
            let numbers = format!("under {}, nodes {}", vs(under.0, under.1), vs(nodes.0, nodes.1));
            (no_worse && (under.0 < under.1 || nodes.0 < nodes.1), numbers)
        };
        let (holds, numbers) = dominates("fixed-0.95", "staircase-5");
        let claim = format!("ablation_staircase: fixed-0.95 dominates staircase-5 ({numbers})");
        let first = Shape::new(Scope::Both, holds, claim);
        let (holds, numbers) = dominates("adaptive-2 (0.8/0.95)", "staircase-3");
        let claim =
            format!("ablation_staircase: adaptive-2 does not dominate staircase-3 ({numbers})");
        vec![first, Shape::new(Scope::Both, !holds, claim)]
    }
}
