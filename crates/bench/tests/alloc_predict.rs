//! Allocation ratchet for one DeepAR `forecast_quantiles` call.
//!
//! DeepAR inference used to allocate on every GRU step of every sample
//! path (80 591 allocations / 25.9 MB for 100 paths × 72 steps). It now
//! runs on `rpas_nn::GruStepper` with buffers built once per call, so the
//! count is a small constant: the stepper's weight copies and scratch, the
//! sample matrix, the result. This test pins both halves
//! of that — the ceiling, and that the count does not move with paths ×
//! horizon — so a `Vec` that creeps back into the sampling loop fails here
//! instead of showing up as a slow ledger row.
//!
//! Kept to a single `#[test]` in its own binary: the counting allocator
//! observes the whole process (see `alloc_ratchet.rs`).

use rpas_bench::alloc;
use rpas_forecast::{DeepAr, DeepArConfig, Forecaster, SCALING_LEVELS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Ceiling on allocator calls per predict.
const MAX_ALLOCS: u64 = 32;

#[test]
fn deepar_predict_allocations_are_constant_in_paths_and_horizon() {
    assert!(alloc::installed(), "counting allocator must route this binary's allocations");

    let cfg = |num_samples| DeepArConfig {
        context: 24,
        train_window: 48,
        hidden: 20,
        epochs: 1,
        lr: 1e-3,
        windows_per_epoch: 8,
        num_samples,
        seed: 5,
    };
    let series: Vec<f64> = (0..400).map(|t| 40.0 + 10.0 * (t as f64 * 0.26).sin()).collect();
    let mut small = DeepAr::new(cfg(10));
    small.fit(&series).expect("fit");
    let mut large = DeepAr::new(cfg(100));
    large.import_weights(&small.export_weights().expect("fitted")).expect("same architecture");

    let context = &series[300..324];
    // The counters are process-wide and libtest's main thread allocates now
    // and then while it waits for this one; a predict is deterministic, so
    // stray counts only ever add and the smallest of a few repeats is exact.
    let predict = |model: &DeepAr, horizon| {
        let once = || {
            let (out, stats) =
                alloc::measure(|| model.forecast_quantiles(context, horizon, &SCALING_LEVELS));
            assert_eq!(out.expect("forecast").horizon(), horizon);
            stats
        };
        (0..5).map(|_| once()).min_by_key(|s| (s.allocs, s.bytes)).expect("five repeats")
    };
    let few = predict(&small, 8);
    let many = predict(&large, 72);

    assert!(
        few.allocs <= MAX_ALLOCS,
        "predict allocated {} times (ceiling {MAX_ALLOCS})",
        few.allocs
    );
    assert_eq!(
        few.allocs, many.allocs,
        "allocations grew with paths × horizon: {} at 10 × 8, {} at 100 × 72",
        few.allocs, many.allocs
    );
    // 72 × 100 samples and 72 × 7 quantiles of f64, plus the fixed buffers.
    assert!(many.bytes < 256 * 1024, "predict requested {} bytes", many.bytes);
}
