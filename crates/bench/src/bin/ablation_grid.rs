//! **Ablation (DESIGN.md §5)** — how much of TFT's edge comes from its
//! architecture vs from its training objective?
//!
//! Three models, two axes:
//!
//! * `mlp` — feed-forward, parametric Student-t head, NLL loss;
//! * `mlp-quantile` — the *same* feed-forward backbone trained on the TFT's
//!   pinball-grid objective (plain neural quantile regression);
//! * `tft` — pinball-grid objective with the LSTM + attention + GRN
//!   architecture.
//!
//! `mlp` → `mlp-quantile` isolates the loss; `mlp-quantile` → `tft`
//! isolates the architecture.
//!
//! Run: `cargo run --release -p rpas-bench --bin ablation_grid`

use rpas_bench::output::f;
use rpas_bench::{datasets, models, write_csv, ExperimentProfile, Table};
use rpas_forecast::{
    evaluate_quantile, Forecaster, MlpQuantile, MlpQuantileConfig, EVAL_LEVELS,
};
use rpas_par::WorkerPool;

fn main() {
    let p = ExperimentProfile::from_env();
    println!("Grid-family ablation — profile {:?}", p.profile);

    for ds in datasets(&p) {
        // The three ablation cells train independently — fan the fits out
        // over the worker pool (each has its own fixed seed).
        let fitted: Vec<Box<dyn Forecaster + Send>> = WorkerPool::for_jobs(3).map_indexed(3, |i| {
            let mut model: Box<dyn Forecaster + Send> = match i {
                0 => Box::new(models::mlp(&p, 1)),
                1 => Box::new(MlpQuantile::new(MlpQuantileConfig {
                    context: p.context,
                    horizon: p.horizon,
                    hidden: vec![p.hidden * 2, p.hidden * 2],
                    quantiles: EVAL_LEVELS.to_vec(),
                    epochs: p.epochs * 2,
                    lr: 1e-3,
                    windows_per_epoch: p.windows_per_epoch,
                    seed: 1,
                })),
                _ => Box::new(models::tft(&p, &EVAL_LEVELS, 1)),
            };
            model.fit(&ds.train).expect("ablation model fit");
            model
        });

        let mut table = Table::new(&["model", "objective", "architecture", "mean_wQL", "MSE"]);
        let mut csv: Vec<(String, Vec<f64>)> = Vec::new();
        let rows: Vec<(&str, &str, &str, &dyn Forecaster)> = vec![
            ("mlp", "student-t NLL", "feed-forward", fitted[0].as_ref()),
            ("mlp-quantile", "pinball grid", "feed-forward", fitted[1].as_ref()),
            ("tft", "pinball grid", "lstm+attention", fitted[2].as_ref()),
        ];
        for (name, obj, arch, model) in rows {
            let r = evaluate_quantile(model, &ds.test, p.context, p.horizon, &EVAL_LEVELS);
            table.row(vec![
                name.into(),
                obj.into(),
                arch.into(),
                f(r.mean_wql),
                f(r.mse),
            ]);
            csv.push((name.to_string(), vec![r.mean_wql, r.mse]));
        }
        table.print(&format!("Grid-family ablation — {} trace", ds.name));
        let refs: Vec<(&str, &[f64])> = csv.iter().map(|(n, v)| (n.as_str(), v.as_slice())).collect();
        write_csv(&format!("ablation_grid_{}.csv", ds.name), &refs);
    }

    println!(
        "\nReading: the mlp → mlp-quantile delta is the value of directly optimising the \
         grid (no distributional assumption); the mlp-quantile → tft delta is the value \
         of the temporal architecture."
    );
}
