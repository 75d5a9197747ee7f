//! Forecast-quality experiments: Table I, Figs. 6–8 and the grid-family
//! ablation.

use super::{lowest, vs, windows, Named, Report, Scope, Shape};
use crate::models::{self, fit_all_quantile_models, fitted, Fitted};
use crate::output::{f, labelled};
use crate::{datasets, write_csv, ExperimentProfile, Table};
use rpas_core::{
    evaluate_quantile, quantile_windows, uncertainty_series, QuantileEvalReport, RollingSpec,
};
use rpas_forecast::{Forecaster, QuantileForecast, EVAL_LEVELS};
use rpas_obs::Obs;
use rpas_par::WorkerPool;

/// Per trace, one evaluation report per model.
type TraceEvals = Named<Vec<QuantileEvalReport>>;

/// A report column, named for a claim.
type Metric = (&'static str, fn(&QuantileEvalReport) -> f64);

/// `model` over the rolling windows of `test` at `horizon`, on the
/// evaluation grid.
fn evaluate(
    model: &Fitted,
    test: &[f64],
    p: &ExperimentProfile,
    horizon: usize,
) -> QuantileEvalReport {
    let spec = RollingSpec::new(p.context, horizon);
    let windows = quantile_windows(model.as_ref(), test, spec, &EVAL_LEVELS, &Obs::noop());
    evaluate_quantile(model.name(), &windows)
}

/// **Table I** — mean_wQL, wQL and coverage at 0.7 / 0.8 / 0.9, and MSE of
/// ARIMA, MLP, DeepAR and TFT on both traces, averaged over the profile's
/// training runs.
pub(crate) struct Table1(TraceEvals);

pub(crate) fn table1(p: &ExperimentProfile) -> Table1 {
    let traces = datasets(p).into_iter().map(|ds| {
        // One training run per seed over the worker pool; each run's seed
        // is its index, so the averages are identical at any thread count
        // (RPAS_THREADS=1 checks).
        let runs: Vec<Vec<QuantileEvalReport>> =
            WorkerPool::for_jobs(p.training_runs).map_indexed(p.training_runs, |run| {
                let models = fit_all_quantile_models(p, &ds.train, &EVAL_LEVELS, run as u64 + 1);
                models.iter().map(|m| evaluate(m, &ds.test, p, p.horizon)).collect()
            });
        let model_mean =
            |m: usize| average(&runs.iter().map(|run| run[m].clone()).collect::<Vec<_>>());
        (ds.name, (0..runs[0].len()).map(model_mean).collect())
    });
    Table1(traces.collect())
}

fn average(reports: &[QuantileEvalReport]) -> QuantileEvalReport {
    let n = reports.len() as f64;
    let mut avg = reports[0].clone();
    for r in &reports[1..] {
        for i in 0..avg.wql.len() {
            avg.wql[i] += r.wql[i];
            avg.coverage[i] += r.coverage[i];
        }
        avg.mean_wql += r.mean_wql;
        avg.mse += r.mse;
    }
    for i in 0..avg.wql.len() {
        avg.wql[i] /= n;
        avg.coverage[i] /= n;
    }
    avg.mean_wql /= n;
    avg.mse /= n;
    avg
}

/// The claims that TFT has the lowest of each named metric on every trace.
fn tft_lowest(experiment: &str, traces: &TraceEvals, metrics: &[Metric]) -> Vec<Shape> {
    let mut out = Vec::new();
    for ((trace, reports), (metric, key)) in
        traces.iter().flat_map(|t| metrics.iter().map(move |m| (t, m)))
    {
        let best = lowest(reports.iter().map(|r| (r.model.as_str(), key(r))));
        let claim = format!("{experiment} {trace}: tft has the lowest {metric} (lowest: {best})");
        out.push(Shape::new(Scope::Both, best == "tft", claim));
    }
    out
}

impl Report for Table1 {
    fn render(&self) {
        // 0.7 / 0.8 / 0.9 are the last three levels of EVAL_LEVELS.
        let values = |r: &QuantileEvalReport| {
            [&[r.mean_wql][..], &r.wql[6..], &r.coverage[6..], &[r.mse]].concat()
        };
        for (trace, reports) in &self.0 {
            let mut table = Table::new([
                "model", "mean_wQL", "wQL[0.7]", "wQL[0.8]", "wQL[0.9]", "Cov[0.7]", "Cov[0.8]",
                "Cov[0.9]", "MSE",
            ]);
            let columns: Vec<(&str, Vec<f64>)> =
                reports.iter().map(|r| (r.model.as_str(), values(r))).collect();
            for (model, values) in &columns {
                table.row(labelled(*model, values));
            }
            table.print(&format!("Table I — {trace} trace"));
            write_csv(&format!("table1_{trace}.csv"), &columns);
        }
    }

    fn shapes(&self) -> Vec<Shape> {
        let mut out =
            tft_lowest("table1", &self.0, &[("mean_wQL", |r| r.mean_wql), ("MSE", |r| r.mse)]);
        for (_, reports) in self.0.iter().filter(|(trace, _)| *trace == "google") {
            let worst = lowest(reports.iter().map(|r| (r.model.as_str(), -r.mean_wql)));
            let claim = format!("table1 google: arima has the highest mean_wQL (highest: {worst})");
            out.push(Shape::new(Scope::Both, worst == "arima", claim));
        }
        out
    }
}

/// **Fig. 6** — how well the uncertainty metric `U` (Eq. 8) tracks realised
/// error on the Google-like trace, for TFT then DeepAR: Pearson r of `U`
/// against the per-step squared error and mean quantile loss, pooled over
/// every (window, step) and averaged within windows.
pub(crate) struct Fig6(Named<Correlation>);

pub(crate) struct Correlation {
    /// Pooled r(U, sq.err), pooled r(U, QL), within-window r(U, sq.err),
    /// within-window r(U, QL).
    r: [f64; 4],
    /// U, squared error and mean quantile loss on the mid-test window.
    sample: [Vec<f64>; 3],
}

pub(crate) fn fig6(p: &ExperimentProfile) -> Fig6 {
    let ds = &datasets(p)[1]; // Google trace, as in the paper's figure
    let tft = fitted(models::tft(p, &EVAL_LEVELS, 1), &ds.train);
    let deepar = fitted(models::deepar(p, 1), &ds.train);
    Fig6(vec![
        ("tft", correlation(&tft, &ds.test, p)),
        ("deepar", correlation(&deepar, &ds.test, p)),
    ])
}

fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum();
    let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum();
    cov / (va.sqrt() * vb.sqrt() + 1e-300)
}

fn correlation(model: &dyn Forecaster, test: &[f64], p: &ExperimentProfile) -> Correlation {
    // Per window: U, squared error of the level mean, mean quantile loss.
    let per_window: Vec<[Vec<f64>; 3]> = windows(model, test, p, &EVAL_LEVELS)
        .iter()
        .map(|(qf, actual)| {
            let mean = qf.level_mean();
            let se = (0..p.horizon).map(|h| (mean[h] - actual[h]).powi(2)).collect();
            let ql = (0..p.horizon).map(|h| {
                let loss = |&tau: &f64| rpas_nn::loss::pinball(qf.at(h, tau), actual[h], tau).0;
                EVAL_LEVELS.iter().map(loss).sum::<f64>() / EVAL_LEVELS.len() as f64
            });
            [uncertainty_series(qf), se, ql.collect()]
        })
        .collect();
    let pooled =
        |k: usize| per_window.iter().flat_map(|w| w[k].iter().copied()).collect::<Vec<f64>>();
    let within = |k: usize| {
        per_window.iter().map(|w| pearson(&w[0], &w[k])).sum::<f64>() / per_window.len() as f64
    };
    let u = pooled(0);
    Correlation {
        r: [pearson(&u, &pooled(1)), pearson(&u, &pooled(2)), within(1), within(2)],
        sample: per_window[per_window.len() / 2].clone(),
    }
}

impl Report for Fig6 {
    fn render(&self) {
        let mut table = Table::new([
            "model",
            "pooled r(U, sq.err)",
            "pooled r(U, QL)",
            "within-window r(U, sq.err)",
            "within-window r(U, QL)",
        ]);
        for (model, c) in &self.0 {
            table.row(labelled(*model, &c.r));
        }
        table.print("Fig. 6 — uncertainty/accuracy correlation (google)");
        for (model, c) in &self.0 {
            let columns: Vec<_> = ["uncertainty", "squared_error", "mean_quantile_loss"]
                .into_iter()
                .zip(&c.sample)
                .collect();
            write_csv(&format!("fig6_{model}.csv"), &columns);
        }
    }

    fn shapes(&self) -> Vec<Shape> {
        let shape = |(model, c): &(&str, Correlation)| {
            // DeepAR's r has read ≤ 0 at full since PR 1 (CHANGES.md, PR 26).
            let scope = if *model == "tft" { Scope::Both } else { Scope::Quick };
            Shape::new(
                scope,
                c.r[1] > 0.0,
                format!("fig6 {model}: pooled r(U, mean QL) > 0 ({})", f(c.r[1])),
            )
        };
        self.0.iter().map(shape).collect()
    }
}

/// **Fig. 7** — prediction intervals of MLP, DeepAR and TFT against the
/// actual series on one mid-test Alibaba-like horizon.
pub(crate) struct Fig7 {
    actual: Vec<f64>,
    /// `(model, forecast, mean width of the 80 % band, share of actual
    /// steps inside it)`.
    models: Vec<(&'static str, QuantileForecast, f64, f64)>,
}

#[expect(clippy::expect_used, reason = "the profile sizes the context to the model")]
pub(crate) fn fig7(p: &ExperimentProfile) -> Fig7 {
    let ds = &datasets(p)[0]; // Alibaba trace: clearest periodic structure
    let fits: [Fitted; 3] = [
        Box::new(fitted(models::mlp(p, 1), &ds.train)),
        Box::new(fitted(models::deepar(p, 1), &ds.train)),
        Box::new(fitted(models::tft(p, &EVAL_LEVELS, 1), &ds.train)),
    ];
    let rw = RollingSpec::new(p.context, p.horizon).windows(&ds.test);
    let (ctx, actual) = rw.window(rw.len() / 2); // a mid-test sample horizon
    let n = actual.len() as f64;
    let models = fits.iter().map(|m| {
        let qf = m.forecast_quantiles(ctx, p.horizon, &EVAL_LEVELS).expect("fig7 forecast");
        let band: Vec<(f64, f64)> = qf.series(0.1).into_iter().zip(qf.series(0.9)).collect();
        let in_band =
            actual.iter().zip(&band).filter(|&(&a, &(lo, hi))| lo <= a && a <= hi).count();
        let width = band.iter().map(|(lo, hi)| hi - lo).sum::<f64>();
        (m.name(), qf, width / n, in_band as f64 / n)
    });
    Fig7 { actual: actual.to_vec(), models: models.collect() }
}

fn ascii_strip(actual: &[f64], qf: &QuantileForecast) -> String {
    // Each forecast step prints one row: actual position `*` inside the
    // [q10, q90] band rendered as dashes with the median as `|`.
    let lo: Vec<f64> = qf.series(0.1);
    let hi: Vec<f64> = qf.series(0.9);
    let med = qf.median();
    let min = lo.iter().chain(actual).cloned().fold(f64::INFINITY, f64::min);
    let max = hi.iter().chain(actual).cloned().fold(f64::NEG_INFINITY, f64::max);
    let width = 60usize;
    let scale = |v: f64| {
        (((v - min) / (max - min + 1e-12)) * (width - 1) as f64)
            .round()
            .clamp(0.0, (width - 1) as f64) as usize
    };
    let mut out = String::new();
    for h in (0..actual.len()).step_by((actual.len() / 18).max(1)) {
        let mut row = vec![b' '; width];
        let (l, u, m, a) = (scale(lo[h]), scale(hi[h]), scale(med[h]), scale(actual[h]));
        for cell in row.iter_mut().take(u + 1).skip(l) {
            *cell = b'-';
        }
        row[m] = b'|';
        row[a] = b'*';
        out.push_str(&format!("h={h:>3} {}\n", String::from_utf8_lossy(&row)));
    }
    out
}

impl Report for Fig7 {
    #[expect(clippy::print_stdout, reason = "the strip charts are Fig. 7's plot")]
    fn render(&self) {
        let mut table = Table::new(["model", "mean 80% width", "in 80% band"]);
        for (model, qf, width, inside) in &self.models {
            println!("\n== Fig. 7 — {model} ==  (band = 80% interval, | median, * actual)");
            print!("{}", ascii_strip(&self.actual, qf));
            // 50% interval = [q25, q75] via interpolation on the eval grid.
            let quantiles =
                [("q10", 0.1), ("q25", 0.25), ("median", 0.5), ("q75", 0.75), ("q90", 0.9)];
            let mut columns = vec![("actual", self.actual.clone()), ("mean", qf.level_mean())];
            columns.extend(quantiles.map(|(name, level)| (name, qf.series(level))));
            write_csv(&format!("fig7_{model}.csv"), &columns);
            table.row(labelled(*model, &[*width, *inside]));
        }
        table.print("Fig. 7 — 80% band on the sampled horizon (alibaba)");
    }

    fn shapes(&self) -> Vec<Shape> {
        let width = |name: &str| self.models.iter().find(|m| m.0 == name).map_or(f64::NAN, |m| m.2);
        let narrower = |scope, than: &str| {
            let (tft, other) = (width("tft"), width(than));
            let claim =
                format!("fig7: tft's 80% band is narrower than {than}'s ({})", vs(tft, other));
            Shape::new(scope, tft < other, claim)
        };
        vec![narrower(Scope::Quick, "mlp"), narrower(Scope::Both, "deepar")]
    }
}

/// **Fig. 8** — mean_wQL of each model at prediction lengths
/// {1, 6, 12, 36, 72} (those within the profile's horizon), per trace.
pub(crate) struct Fig8 {
    horizons: Vec<usize>,
    /// Per trace, `(model, mean_wQL at each horizon)`.
    traces: Named<Named<Vec<f64>>>,
}

pub(crate) fn fig8(p: &ExperimentProfile) -> Fig8 {
    let horizons: Vec<usize> = [1, 6, 12, 36, 72].into_iter().filter(|&h| h <= p.horizon).collect();
    let traces = datasets(p).into_iter().map(|ds| {
        // Trained once at the maximum horizon; shorter horizons reuse the
        // fit (the paper likewise fixes hyperparameters across horizons).
        let wql = |m: &Fitted| {
            horizons.iter().map(|&h| evaluate(m, &ds.test, p, h).mean_wql).collect::<Vec<_>>()
        };
        (
            ds.name,
            fit_all_quantile_models(p, &ds.train, &EVAL_LEVELS, 1)
                .iter()
                .map(|m| (m.name(), wql(m)))
                .collect(),
        )
    });
    Fig8 { traces: traces.collect(), horizons }
}

impl Report for Fig8 {
    fn render(&self) {
        let horizons: Vec<f64> = self.horizons.iter().map(|&h| h as f64).collect();
        for (trace, models) in &self.traces {
            let headers = self.horizons.iter().map(|h| format!("H={h}"));
            let mut table = Table::new(std::iter::once("model".to_string()).chain(headers));
            let mut columns: Vec<(&str, &[f64])> = vec![("horizon", &horizons[..])];
            for (model, wql) in models {
                table.row(labelled(*model, wql));
                columns.push((*model, wql));
            }
            table.print(&format!("Fig. 8 — mean_wQL vs horizon, {trace} trace"));
            write_csv(&format!("fig8_{trace}.csv"), &columns);
        }
    }

    fn shapes(&self) -> Vec<Shape> {
        let mut out = Vec::new();
        for (trace, models) in &self.traces {
            for (scope, i, model) in
                [(Scope::Both, self.horizons.len() - 1, "tft"), (Scope::Full, 0, "deepar")]
            {
                let best = lowest(models.iter().map(|(m, wql)| (*m, wql[i])));
                let claim = format!(
                    "fig8 {trace}: {model} is best at H={} (best: {best})",
                    self.horizons[i]
                );
                out.push(Shape::new(scope, best == model, claim));
            }
        }
        out
    }
}

/// **Grid-family ablation** (DESIGN.md §5) — how much of TFT's edge is its
/// pinball-grid objective and how much its architecture: the MLP with a
/// Student-t head, the same MLP on the pinball grid, and TFT.
pub(crate) struct AblationGrid(TraceEvals);

pub(crate) fn ablation_grid(p: &ExperimentProfile) -> AblationGrid {
    let traces = datasets(p).into_iter().map(|ds| {
        // The three cells train independently, each with its own fixed
        // seed: fan them out over the worker pool.
        let reports = WorkerPool::for_jobs(3).map_indexed(3, |i| {
            let model: Fitted = match i {
                0 => Box::new(fitted(models::mlp(p, 1), &ds.train)),
                1 => Box::new(fitted(models::mlp_quantile(p, &EVAL_LEVELS, 1), &ds.train)),
                _ => Box::new(fitted(models::tft(p, &EVAL_LEVELS, 1), &ds.train)),
            };
            evaluate(&model, &ds.test, p, p.horizon)
        });
        (ds.name, reports)
    });
    AblationGrid(traces.collect())
}

impl Report for AblationGrid {
    fn render(&self) {
        let cells = [
            ["student-t NLL", "feed-forward"],
            ["pinball grid", "feed-forward"],
            ["pinball grid", "lstm+attention"],
        ];
        for (trace, reports) in &self.0 {
            let mut table = Table::new(["model", "objective", "architecture", "mean_wQL", "MSE"]);
            let mut columns = Vec::new();
            for (r, [objective, arch]) in reports.iter().zip(cells) {
                table.row(
                    [r.model.clone(), objective.into(), arch.into(), f(r.mean_wql), f(r.mse)]
                        .into(),
                );
                columns.push((r.model.as_str(), [r.mean_wql, r.mse]));
            }
            table.print(&format!("Grid-family ablation — {trace} trace"));
            write_csv(&format!("ablation_grid_{trace}.csv"), &columns);
        }
    }

    fn shapes(&self) -> Vec<Shape> {
        tft_lowest("ablation_grid", &self.0, &[("mean_wQL", |r| r.mean_wql)])
    }
}
