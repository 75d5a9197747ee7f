//! **Table I** — Performance comparison of forecasting models (context 72,
//! horizon 72): mean_wQL, wQL@{0.7, 0.8, 0.9}, Coverage@{0.7, 0.8, 0.9},
//! and MSE for ARIMA / MLP / DeepAR / TFT on both traces, averaged over
//! three training runs.
//!
//! Run: `cargo run --release -p rpas-bench --bin table1`
//! (`RPAS_PROFILE=quick` for a smoke test.)

use rpas_bench::output::f;
use rpas_bench::{datasets, fit_all_quantile_models, write_csv, ExperimentProfile, Table};
use rpas_forecast::{evaluate_quantile, Forecaster, QuantileEvalReport, EVAL_LEVELS};
use rpas_par::WorkerPool;

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

fn main() {
    let p = ExperimentProfile::from_env();
    println!(
        "Table I reproduction — profile {:?}, context {}, horizon {}, {} run(s)",
        p.profile, p.context, p.horizon, p.training_runs
    );

    for ds in datasets(&p) {
        // One training run per seed, fanned out over the std::thread
        // worker pool; each run's seed is its index, so the averaged
        // table is identical at any thread count (RPAS_THREADS=1 checks).
        let pool = WorkerPool::for_jobs(p.training_runs);
        let runs: Vec<Vec<QuantileEvalReport>> = pool.map_indexed(p.training_runs, |run| {
            let models = fit_all_quantile_models(&p, &ds.train, &EVAL_LEVELS, run as u64 + 1);
            let eval = |m: &dyn Forecaster| {
                evaluate_quantile(m, &ds.test, p.context, p.horizon, &EVAL_LEVELS)
            };
            vec![eval(&models.arima), eval(&models.mlp), eval(&models.deepar), eval(&models.tft)]
        });

        let mut table = Table::new(&[
            "model",
            "mean_wQL",
            "wQL[0.7]",
            "wQL[0.8]",
            "wQL[0.9]",
            "Cov[0.7]",
            "Cov[0.8]",
            "Cov[0.9]",
            "MSE",
        ]);
        let mut csv_cols: Vec<(String, Vec<f64>)> = Vec::new();
        for (mi, name) in ["arima", "mlp", "deepar", "tft"].iter().enumerate() {
            let per_model: Vec<QuantileEvalReport> =
                runs.iter().map(|run| run[mi].clone()).collect();
            let r = average(&per_model);
            table.row(vec![
                name.to_string(),
                f(r.mean_wql),
                f(r.wql_at(0.7).expect("level")),
                f(r.wql_at(0.8).expect("level")),
                f(r.wql_at(0.9).expect("level")),
                f(r.coverage_at(0.7).expect("level")),
                f(r.coverage_at(0.8).expect("level")),
                f(r.coverage_at(0.9).expect("level")),
                f(r.mse),
            ]);
            csv_cols.push((
                name.to_string(),
                vec![
                    r.mean_wql,
                    r.wql_at(0.7).expect("level"),
                    r.wql_at(0.8).expect("level"),
                    r.wql_at(0.9).expect("level"),
                    r.coverage_at(0.7).expect("level"),
                    r.coverage_at(0.8).expect("level"),
                    r.coverage_at(0.9).expect("level"),
                    r.mse,
                ],
            ));
        }
        table.print(&format!("Table I — {} trace", ds.name));
        let cols: Vec<(&str, &[f64])> =
            csv_cols.iter().map(|(n, v)| (n.as_str(), v.as_slice())).collect();
        write_csv(&format!("table1_{}.csv", ds.name), &cols);
    }
}
