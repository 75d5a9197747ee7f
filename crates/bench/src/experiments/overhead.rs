//! Computation overhead: Tables II and III.

use super::scaling::scaling_models;
use super::{manager, Report, Scope, Shape, THETA};
use crate::models::{self, Fitted};
use crate::output::f;
use crate::{datasets, write_csv, ExperimentProfile, Table};
use rpas_core::ScalingStrategy::{Adaptive, Fixed};
use rpas_core::{plan_point, AdaptiveConfig, PlanningBackend, ReactiveAvg, ReactiveMax};
use rpas_forecast::{PointForecaster, SCALING_LEVELS};
use rpas_simdb::{Observation, ScalingPolicy};
use rpas_tsmath::stats::median;
use std::hint::black_box;

/// Repetitions. Every row is timed once per repetition, in table order,
/// so the two sides of each DeepAR/TFT pair run in the same host mode.
const REPS: usize = 15;
/// Calls per timed sample of the rows too cheap to time one by one.
const BATCH: usize = 1000;

/// Table II's methods: label and CSV column.
const CYCLES: [(&str, &str); 5] = [
    ("Reactive-Max", "reactive_max"),
    ("Reactive-Average", "reactive_avg"),
    ("Hybrid (QB5000)", "qb5000"),
    ("DeepAR", "deepar"),
    ("TFT", "tft"),
];
/// Table III's rows: component, variant and CSV column.
const BREAKDOWN: [(&str, &str, &str); 5] = [
    ("forecasting", "DeepAR", "deepar_forecast_ms"),
    ("forecasting", "TFT", "tft_forecast_ms"),
    ("optimization", "Basic", "basic_opt_ms"),
    ("optimization", "Adaptive", "adaptive_opt_ms"),
    ("optimization", "Simplex", "simplex_opt_ms"),
];

/// **Tables II & III** — computation overhead on the Google-like trace.
/// Table II times one scaling decision cycle per method (forecast and
/// plan, or a reactive window scan); Table III splits our method into
/// forecasting (DeepAR, TFT) and optimization: the closed-form basic and
/// adaptive plans, and the basic plan solved by the simplex.
pub(crate) struct Table2_3 {
    /// Median milliseconds per call: Table II's rows, then Table III's.
    ms: [f64; 10],
    /// A DeepAR cycle over the TFT cycle timed right after it, median
    /// over the repetitions.
    deepar_over_tft: f64,
}

/// Milliseconds per call of `work` over `calls` calls.
#[expect(clippy::disallowed_types, reason = "Tables II and III are wall-clock time")]
fn ms_per_call(calls: usize, mut work: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..calls {
        work();
    }
    start.elapsed().as_secs_f64() * 1e3 / calls as f64
}

/// Keeps `value` from being optimised away.
fn keep<T>(value: T) {
    black_box(value);
}

#[expect(clippy::expect_used, reason = "an experiment cannot run without its fitted models")]
pub(crate) fn table2_3(p: &ExperimentProfile) -> Table2_3 {
    let ds = &datasets(p)[1]; // Google trace (burstier; arbitrary for timing)
    let ctx = &ds.test[..p.context];
    let fitted = scaling_models(p, &ds.train);
    let (deepar, tft) = (&fitted[0], &fitted[1]);
    let mut qb = models::qb5000(p, 1);
    qb.fit(&ds.train).expect("qb5000 fit");

    let basic = manager(Fixed { tau: 0.9 });
    let adaptive = manager(Adaptive(AdaptiveConfig::new(0.8, 0.95, 1.0)));
    let simplex = basic.clone().with_backend(PlanningBackend::Simplex);
    let forecast =
        |m: &Fitted| m.forecast_quantiles(ctx, p.horizon, &SCALING_LEVELS).expect("forecast");
    let qf = forecast(tft);
    let obs = Observation::new(ctx.len(), ctx, 2, THETA, 1);
    let (mut rmax, mut ravg) = (ReactiveMax::new(6), ReactiveAvg::paper_default());

    // `(calls per sample, one call)`, in the order of CYCLES then BREAKDOWN.
    let mut rows: Vec<(usize, Box<dyn FnMut() + '_>)> = vec![
        (BATCH, Box::new(|| keep(rmax.decide(&obs)))),
        (BATCH, Box::new(|| keep(ravg.decide(&obs)))),
        (
            1,
            Box::new(|| {
                let point = qb.forecast(ctx, p.horizon).expect("forecast");
                let clamped: Vec<f64> = point.iter().map(|w| w.max(0.0)).collect();
                keep(plan_point(&clamped, THETA, 1));
            }),
        ),
        (1, Box::new(|| keep(basic.plan(&forecast(deepar))))),
        (1, Box::new(|| keep(basic.plan(&forecast(tft))))),
        (1, Box::new(|| keep(forecast(deepar)))),
        (1, Box::new(|| keep(forecast(tft)))),
        (BATCH, Box::new(|| keep(basic.plan(&qf)))),
        (BATCH, Box::new(|| keep(adaptive.plan(&qf)))),
        (BATCH / 10, Box::new(|| keep(simplex.plan(&qf)))),
    ];
    let mut samples = vec![Vec::with_capacity(REPS); rows.len()];
    for _ in 0..REPS {
        for ((calls, work), ms) in rows.iter_mut().zip(&mut samples) {
            ms.push(ms_per_call(*calls, work));
        }
    }
    // Table II's DeepAR and TFT cycles, timed back to back.
    let ratios: Vec<f64> = samples[3].iter().zip(&samples[4]).map(|(d, t)| d / t).collect();
    Table2_3 {
        ms: std::array::from_fn(|row| median(&samples[row])),
        deepar_over_tft: median(&ratios),
    }
}

impl Report for Table2_3 {
    fn render(&self) {
        let (cycles, breakdown) = self.ms.split_at(CYCLES.len());
        let mut t2 = Table::new(["method", "execution time (ms)"]);
        for ((method, _), &ms) in CYCLES.iter().zip(cycles) {
            t2.row(vec![method.to_string(), f(ms)]);
        }
        t2.print("Table II — computation overhead comparison");
        let columns: Vec<_> = CYCLES.iter().zip(cycles).map(|((_, c), ms)| (*c, [*ms])).collect();
        write_csv("table2.csv", &columns);

        let mut t3 = Table::new(["component", "variant", "time (ms)"]);
        for (&(component, variant, _), &ms) in BREAKDOWN.iter().zip(breakdown) {
            let time = if component == "forecasting" { f(ms) } else { format!("{ms:.6}") };
            t3.row(vec![component.to_string(), variant.to_string(), time]);
        }
        t3.print("Table III — computation overhead breakdown");
        let columns: Vec<_> =
            BREAKDOWN.iter().zip(breakdown).map(|((_, _, c), ms)| (*c, [*ms])).collect();
        write_csv("table3.csv", &columns);
    }

    fn shapes(&self) -> Vec<Shape> {
        let ratio = self.deepar_over_tft;
        let claim = format!(
            "table2_3: a DeepAR decision cycle costs ≥ 10× a TFT one ({ratio:.1}×, median of \
             {REPS} interleaved pairs)"
        );
        let sampling = Shape::new(Scope::Both, ratio >= 10.0, claim);
        // Basic and adaptive plans as shares of one TFT forecast.
        let [.., tft, basic, adaptive, _] = self.ms;
        let [basic, adaptive] = [basic / tft, adaptive / tft];
        let claim = format!(
            "table2_3: a basic or adaptive plan costs < 10% of a TFT forecast (basic {:.2}%, \
             adaptive {:.2}%)",
            basic * 100.0,
            adaptive * 100.0
        );
        vec![sampling, Shape::new(Scope::Both, basic.max(adaptive) < 0.1, claim)]
    }
}
