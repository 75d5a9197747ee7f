//! **Fig. 6** — correlation between the forecast-uncertainty metric `U`
//! (Eq. 8) and realised forecast accuracy (per-step squared error of the
//! mean forecast and per-step mean quantile loss), over sampled forecast
//! horizons.
//!
//! The paper's figure shows the two curves co-moving *within* sampled
//! horizons, so we report both the pooled correlation across all
//! (window, step) pairs and the mean within-window correlation, for the
//! two quantile forecasters.
//!
//! Run: `cargo run --release -p rpas-bench --bin fig6`

use rpas_bench::output::f;
use rpas_bench::{datasets, models, write_csv, ExperimentProfile, Table};
use rpas_core::rolling::{quantile_windows, RollingSpec};
use rpas_core::uncertainty_series;
use rpas_forecast::{Forecaster, EVAL_LEVELS};

fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum();
    let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum();
    cov / (va.sqrt() * vb.sqrt() + 1e-300)
}

struct CorrStats {
    pooled_se: f64,
    pooled_ql: f64,
    within_se: f64,
    within_ql: f64,
    sample_u: Vec<f64>,
    sample_se: Vec<f64>,
    sample_ql: Vec<f64>,
}

fn correlations<F: Forecaster + ?Sized>(
    model: &F,
    test: &[f64],
    context: usize,
    horizon: usize,
) -> CorrStats {
    let spec = RollingSpec::new(context, horizon);
    let windows = quantile_windows(model, test, spec, &EVAL_LEVELS, &rpas_obs::Obs::noop());
    let mut u_all = Vec::new();
    let mut se_all = Vec::new();
    let mut ql_all = Vec::new();
    let mut r_se = Vec::new();
    let mut r_ql = Vec::new();
    let mut sample: Option<(Vec<f64>, Vec<f64>, Vec<f64>)> = None;

    for (k, (qf, actual)) in windows.iter().enumerate() {
        let u = uncertainty_series(qf);
        let mean = qf.level_mean();
        let se: Vec<f64> = (0..horizon).map(|h| (mean[h] - actual[h]).powi(2)).collect();
        let ql: Vec<f64> = (0..horizon)
            .map(|h| {
                EVAL_LEVELS
                    .iter()
                    .map(|&tau| rpas_nn::loss::pinball(qf.at(h, tau), actual[h], tau).0)
                    .sum::<f64>()
                    / EVAL_LEVELS.len() as f64
            })
            .collect();
        r_se.push(pearson(&u, &se));
        r_ql.push(pearson(&u, &ql));
        if k == windows.len() / 2 {
            sample = Some((u.clone(), se.clone(), ql.clone()));
        }
        u_all.extend(u);
        se_all.extend(se);
        ql_all.extend(ql);
    }

    let (sample_u, sample_se, sample_ql) = sample.expect("at least one window");
    CorrStats {
        pooled_se: pearson(&u_all, &se_all),
        pooled_ql: pearson(&u_all, &ql_all),
        within_se: r_se.iter().sum::<f64>() / r_se.len() as f64,
        within_ql: r_ql.iter().sum::<f64>() / r_ql.len() as f64,
        sample_u,
        sample_se,
        sample_ql,
    }
}

fn main() {
    let p = ExperimentProfile::from_env();
    println!("Fig. 6 reproduction — profile {:?}", p.profile);
    let ds = &datasets(&p)[1]; // Google trace, as in the paper's figure

    let mut tft = models::tft(&p, &EVAL_LEVELS, 1);
    tft.fit(&ds.train).expect("tft fit");
    let mut deepar = models::deepar(&p, 1);
    deepar.fit(&ds.train).expect("deepar fit");

    let mut table = Table::new(&[
        "model",
        "pooled r(U, sq.err)",
        "pooled r(U, QL)",
        "within-window r(U, sq.err)",
        "within-window r(U, QL)",
    ]);
    let named: Vec<(&str, &dyn Forecaster)> = vec![("tft", &tft), ("deepar", &deepar)];
    for (name, model) in named {
        let c = correlations(model, &ds.test, p.context, p.horizon);
        table.row(vec![
            name.to_string(),
            f(c.pooled_se),
            f(c.pooled_ql),
            f(c.within_se),
            f(c.within_ql),
        ]);
        write_csv(
            &format!("fig6_{name}.csv"),
            &[
                ("uncertainty", &c.sample_u[..]),
                ("squared_error", &c.sample_se[..]),
                ("mean_quantile_loss", &c.sample_ql[..]),
            ],
        );
    }
    table.print("Fig. 6 — uncertainty/accuracy correlation (google)");

    println!(
        "\nShape check vs paper: the correlations should be clearly positive — steps the \
         forecaster marks as uncertain are forecast less accurately, which is the premise \
         of the uncertainty-aware adaptive strategy."
    );
}
