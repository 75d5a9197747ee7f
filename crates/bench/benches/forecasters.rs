//! Bench for forecaster inference paths, including the DESIGN.md DeepAR
//! sample-count ablation: Monte-Carlo path count trades quantile accuracy
//! for the inference latency Table II attributes to DeepAR.
//!
//! Run: `cargo bench -p rpas-bench --bench forecasters`

use rpas_bench::harness::BenchGroup;
use rpas_bench::{datasets, models, ExperimentProfile};
use rpas_forecast::{DeepAr, DeepArConfig, Forecaster, SCALING_LEVELS};
use std::hint::black_box;

fn main() {
    let p = ExperimentProfile::bench();
    let ds = datasets(&p).remove(0); // alibaba
    let ctx: Vec<f64> = ds.test[..p.context].to_vec();

    // DeepAR sample-count ablation.
    let mut group = BenchGroup::new("deepar_sample_count");
    for &samples in &[10usize, 50, 100, 300] {
        let mut m = DeepAr::new(DeepArConfig {
            num_samples: samples,
            ..models::deepar(&p, 1).config().clone()
        });
        m.fit(&ds.train).expect("deepar fit");
        group.bench(&samples.to_string(), || {
            black_box(m.forecast_quantiles(&ctx, p.horizon, &SCALING_LEVELS).expect("forecast"))
        });
    }
    group.finish();

    // TFT / MLP / ARIMA inference for comparison.
    let mut group = BenchGroup::new("forecaster_inference");
    let mut tft = models::tft(&p, &SCALING_LEVELS, 1);
    tft.fit(&ds.train).expect("tft fit");
    group.bench("tft", || {
        black_box(tft.forecast_quantiles(&ctx, p.horizon, &SCALING_LEVELS).expect("forecast"))
    });
    let mut mlp = models::mlp(&p, 1);
    mlp.fit(&ds.train).expect("mlp fit");
    group.bench("mlp", || {
        black_box(mlp.forecast_quantiles(&ctx, p.horizon, &SCALING_LEVELS).expect("forecast"))
    });
    let mut arima = models::arima();
    arima.fit(&ds.train).expect("arima fit");
    group.bench("arima", || {
        black_box(arima.forecast_quantiles(&ctx, p.horizon, &SCALING_LEVELS).expect("forecast"))
    });
    group.finish();
}
