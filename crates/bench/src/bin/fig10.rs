//! **Fig. 10** — analysis across quantile levels: under- and
//! over-provisioning rates when scaling on forecasts at each τ in the
//! scaling grid, exposing the robustness/efficiency trade-off and the
//! crossover the paper uses to pick an operating point.
//!
//! Run: `cargo run --release -p rpas-bench --bin fig10`

use rpas_bench::output::f;
use rpas_bench::{datasets, models, write_csv, ExperimentProfile, Table};
use rpas_core::{evaluate_plans_quantile, RobustAutoScalingManager, ScalingStrategy};
use rpas_forecast::{Forecaster, SCALING_LEVELS};
use rpas_par::WorkerPool;

const THETA: f64 = 60.0;

fn main() {
    let p = ExperimentProfile::from_env();
    println!("Fig. 10 reproduction — profile {:?}, θ={THETA}", p.profile);

    for ds in datasets(&p) {
        let mut deepar = models::deepar(&p, 1);
        deepar.fit(&ds.train).expect("deepar fit");
        let mut tft = models::tft(&p, &SCALING_LEVELS, 1);
        tft.fit(&ds.train).expect("tft fit");

        let mut table = Table::new(&[
            "tau",
            "deepar under",
            "deepar over",
            "tft under",
            "tft over",
        ]);
        let mut taus = Vec::new();
        let (mut du, mut dov, mut tu, mut tov) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        // Fitted models are immutable during evaluation, so the τ sweep
        // fans out over the worker pool; results come back in grid order.
        let n = SCALING_LEVELS.len();
        let sweep = WorkerPool::for_jobs(n).map_indexed(n, |i| {
            let tau = SCALING_LEVELS[i];
            let mgr = RobustAutoScalingManager::new(THETA, 1, ScalingStrategy::Fixed { tau });
            let rd = evaluate_plans_quantile(
                &deepar,
                &ds.test,
                p.context,
                p.horizon,
                &mgr,
                &SCALING_LEVELS,
            );
            let rt = evaluate_plans_quantile(
                &tft,
                &ds.test,
                p.context,
                p.horizon,
                &mgr,
                &SCALING_LEVELS,
            );
            (tau, rd, rt)
        });
        for (tau, rd, rt) in sweep {
            table.row(vec![
                format!("{tau}"),
                f(rd.under_rate),
                f(rd.over_rate),
                f(rt.under_rate),
                f(rt.over_rate),
            ]);
            taus.push(tau);
            du.push(rd.under_rate);
            dov.push(rd.over_rate);
            tu.push(rt.under_rate);
            tov.push(rt.over_rate);
        }
        table.print(&format!("Fig. 10 — rates across quantile levels, {} trace", ds.name));
        write_csv(
            &format!("fig10_{}.csv", ds.name),
            &[
                ("tau", &taus[..]),
                ("deepar_under", &du[..]),
                ("deepar_over", &dov[..]),
                ("tft_under", &tu[..]),
                ("tft_over", &tov[..]),
            ],
        );

        // Shape assertions: under-provisioning must fall monotonically-ish
        // with tau while over-provisioning rises.
        let first_u = du[0].max(tu[0]);
        let last_u = du.last().unwrap().max(*tu.last().unwrap());
        println!(
            "under-prov {}→{} as τ goes 0.5→0.99 (should fall); over-prov {}→{} (should rise)",
            f(first_u),
            f(last_u),
            f(dov[0].min(tov[0])),
            f(dov.last().unwrap().min(*tov.last().unwrap())),
        );
    }

    println!(
        "\nShape check vs paper: raising τ trades under-provisioning for over-provisioning; \
         the crossover region identifies the balanced operating level."
    );
}
