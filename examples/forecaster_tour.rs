//! Tour of the probabilistic forecasters: train each model family on the
//! same Alibaba-like trace and compare quantile quality side-by-side —
//! a miniature Table I.
//!
//! Uses small model sizes so the whole tour trains in about a minute in
//! release mode; `cargo run --release -p rpas-bench --bin experiments --
//! table1` runs the paper-scale version.
//!
//! Run: `cargo run --release --example forecaster_tour`

use rpas::core::{evaluate_quantile, quantile_windows, RollingSpec};
use rpas::forecast::{
    Arima, ArimaConfig, DeepAr, DeepArConfig, DistKind, Forecaster, MlpProb, MlpProbConfig,
    SeasonalNaive, Tft, TftConfig, EVAL_LEVELS,
};
use rpas::obs::Obs;
use rpas::traces::{alibaba_like, STEPS_PER_DAY};

fn main() {
    let (context, horizon) = (STEPS_PER_DAY, 24usize);
    let trace = alibaba_like(3, 16).cpu().clone();
    let (train, test) = trace.train_test_split(0.7).expect("0.7 is a fraction in [0, 1]");
    println!(
        "training on {} steps, evaluating rolling {}‑step horizons on {} held-out steps\n",
        train.len(),
        horizon,
        test.len()
    );

    let mut models: Vec<(&str, Box<dyn Forecaster>)> = Vec::new();

    let mut m = SeasonalNaive::new(STEPS_PER_DAY);
    m.fit(&train.values).expect("fit");
    models.push(("seasonal-naive", Box::new(m)));

    let mut m = Arima::new(ArimaConfig { p: 5, d: 1, q: 1 });
    m.fit(&train.values).expect("fit");
    models.push(("arima", Box::new(m)));

    let mut m = MlpProb::new(MlpProbConfig {
        context,
        horizon,
        hidden: vec![48, 48],
        dist: DistKind::StudentT,
        epochs: 30,
        lr: 1e-3,
        windows_per_epoch: 64,
        seed: 1,
    });
    m.fit(&train.values).expect("fit");
    models.push(("mlp (student-t)", Box::new(m)));

    let mut m = DeepAr::new(DeepArConfig {
        context,
        train_window: context + horizon,
        hidden: 24,
        epochs: 12,
        lr: 1e-3,
        windows_per_epoch: 64,
        num_samples: 100,
        seed: 1,
    });
    m.fit(&train.values).expect("fit");
    models.push(("deepar", Box::new(m)));

    let mut m = Tft::new(TftConfig {
        context,
        horizon,
        d_model: 24,
        heads: 4,
        quantiles: EVAL_LEVELS.to_vec(),
        epochs: 12,
        lr: 1e-3,
        windows_per_epoch: 64,
        seed: 1,
    });
    m.fit(&train.values).expect("fit");
    models.push(("tft", Box::new(m)));

    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "model", "mean_wQL", "wQL[0.9]", "Cov[0.9]", "MSE", "windows"
    );
    for (name, model) in &models {
        let spec = RollingSpec::new(context, horizon);
        let windows =
            quantile_windows(model.as_ref(), &test.values, spec, &EVAL_LEVELS, &Obs::noop());
        let r = evaluate_quantile(model.name(), &windows);
        println!(
            "{:<16} {:>9.4} {:>9.4} {:>9.3} {:>9.1} {:>9}",
            name,
            r.mean_wql,
            r.wql_at(0.9).expect("level"),
            r.coverage_at(0.9).expect("level"),
            r.mse,
            r.windows
        );
    }
    println!(
        "\nReading the table: lower wQL/MSE is better; Coverage[0.9] near 0.9 means the \
         0.9-quantile forecast is well calibrated."
    );
}
