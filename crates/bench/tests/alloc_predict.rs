//! Allocation ratchet for one `forecast_quantiles` call of each neural
//! and each Gaussian forecaster, for one fleet replan, and for one TFT
//! training window.
//!
//! DeepAR inference used to allocate on every GRU step of every sample
//! path (80 591 allocations / 25.9 MB for 100 paths × 72 steps). It now
//! runs on `rpas_nn::GruStepper` with buffers built once per call, so the
//! count is a small constant: the stepper's scratch, the sample matrix,
//! the result. TFT inference used to clone its whole net and push training
//! caches on every step (2 564 allocations / 2.2 MB at context 72); it now
//! runs the cache-free `&self` layer paths over one scratch set per call.
//! Neither transposes a weight per call: both run on the k-major form
//! each fitted model builds once. This test pins both halves of that for
//! both models — the ceiling, and that the count does not move with the
//! problem size — so a `Vec` that creeps back into a per-step loop, or a
//! weight copy into the predict, fails here instead of showing up as a
//! slow ledger row.
//!
//! The Gaussian forecasters (seasonal-naive, last-value, ARIMA,
//! Holt-Winters) fill their matrix through `QuantileForecast::gaussian`:
//! the matrix, the level vector and one z-score row, whatever the horizon,
//! on top of what the model's own point path needs. A replan of
//! `QuantilePredictivePolicy` adds the workload row and the plan, which is
//! moved into the policy, not copied.
//!
//! The MLP reads each step's quantiles from a `Normal` or `StudentT` on
//! the stack; it used to box one per horizon step.
//!
//! TFT training runs attention on the one query row its loss reads
//! (`MultiHeadAttention::forward_last` / `backward_last`); the fit row
//! measures the bytes one more training window costs, so the all-rows
//! `T × T` buffers cannot come back unnoticed.
//!
//! Kept to a single `#[test]` in its own binary: the counting allocator
//! observes the whole process (see `alloc_ratchet.rs`).

use rpas_bench::alloc;
use rpas_core::{QuantilePredictivePolicy, ReplanSchedule, RobustAutoScalingManager, ScalingStrategy};
use rpas_forecast::{
    Arima, ArimaConfig, DeepAr, DeepArConfig, DistKind, Forecaster, HoltWinters,
    HoltWintersConfig, LastValue, MlpProb, MlpProbConfig, SeasonalNaive, Tft, TftConfig,
    SCALING_LEVELS,
};
use rpas_simdb::{Observation, ScaleOutcome, ScalingPolicy};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Ceiling on allocator calls per DeepAR predict (measured 10; 16 when
/// each predict transposed the GRU's six weight matrices).
const MAX_DEEPAR_ALLOCS: u64 = 12;
/// Ceiling on allocator calls per TFT predict (measured 21; 40 when each
/// predict transposed eighteen weight matrices).
const MAX_TFT_ALLOCS: u64 = 24;

/// Ceiling on allocator calls per MLP predict with one hidden layer
/// (measured 7; 7 plus one per horizon step when each step's
/// distribution was boxed).
const MAX_MLP_ALLOCS: u64 = 8;

/// Ceiling on bytes allocated per TFT training window at the ledger's
/// shape (context 72, `d_model` 32, 4 heads, 7 levels): 1 206 016 B on the
/// last-row attention pair, 1 627 424 B when attention trained all 72
/// query rows (four heads' 72 × 72 weight and `dA` matrices, all-rows Q and
/// its gradient), so that path coming back fails here.
const MAX_TFT_FIT_BYTES_PER_WINDOW: u64 = 1_400_000;

/// Allocator calls and bytes of one predict. The counters are process-wide
/// and libtest's main thread allocates now and then while it waits for this
/// one; a predict is deterministic, so stray counts only ever add and the
/// smallest of a few repeats is exact.
fn predict_cost(model: &dyn Forecaster, context: &[f64], horizon: usize) -> alloc::AllocStats {
    let once = || {
        let (out, stats) =
            alloc::measure(|| model.forecast_quantiles(context, horizon, &SCALING_LEVELS));
        assert_eq!(out.expect("forecast").horizon(), horizon);
        stats
    };
    (0..5).map(|_| once()).min_by_key(|s| (s.allocs, s.bytes)).expect("five repeats")
}

fn deepar_allocations_are_constant_in_paths_and_horizon(series: &[f64]) {
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
    let mut small = DeepAr::new(cfg(10));
    small.fit(series).expect("fit");
    let mut large = DeepAr::new(cfg(100));
    large.import_weights(&small.export_weights().expect("fitted")).expect("same architecture");

    let context = &series[300..324];
    let few = predict_cost(&small, context, 8);
    let many = predict_cost(&large, context, 72);

    assert!(
        few.allocs <= MAX_DEEPAR_ALLOCS,
        "deepar predict allocated {} times (ceiling {MAX_DEEPAR_ALLOCS})",
        few.allocs
    );
    assert_eq!(
        few.allocs, many.allocs,
        "deepar allocations grew with paths × horizon: {} at 10 × 8, {} at 100 × 72",
        few.allocs, many.allocs
    );
    // 72 × 100 samples and 72 × 7 quantiles of f64, plus the fixed
    // buffers: 62 840 B, against 72 920 B with the per-call weight copies.
    assert!(many.bytes < 64 * 1024, "deepar predict requested {} bytes", many.bytes);
}

fn tft_allocations_are_constant_in_context(series: &[f64]) {
    // No weight depends on the context length, so one fit serves both.
    let cfg = |context| TftConfig {
        context,
        horizon: 72,
        epochs: 1,
        windows_per_epoch: 4,
        seed: 5,
        ..TftConfig::default()
    };
    let mut short = Tft::new(cfg(12));
    short.fit(series).expect("fit");
    let mut long = Tft::new(cfg(72));
    long.import_weights(&short.export_weights().expect("fitted")).expect("same architecture");

    let few = predict_cost(&short, &series[300..312], 72);
    let many = predict_cost(&long, &series[300..372], 72);

    assert!(
        many.allocs <= MAX_TFT_ALLOCS,
        "tft predict allocated {} times (ceiling {MAX_TFT_ALLOCS})",
        many.allocs
    );
    assert_eq!(
        few.allocs, many.allocs,
        "tft allocations grew with the context: {} at 12 steps, {} at 72",
        few.allocs, many.allocs
    );
    // No weight copy: the 72 × 32 enriched sequence, attention's K and V
    // (72 × 32 each), the scratch of one 16-position pass (the LSTM's four
    // gate rows, the enrichment GRN's h / u / g / l rows, the embeddings
    // and hidden states), the 72 × 9 head output and the 72 × 7 result,
    // plus the fixed buffers: 116 224 B here and 109 816 B at the ledger's
    // shape (7-level head), against 188 416 B and 182 008 B when every
    // predict built eighteen 32 × 32 k-major copies (8 KiB each).
    assert!(many.bytes < 118 * 1024, "tft predict requested {} bytes", many.bytes);
}

fn tft_fit_bytes_per_window(series: &[f64]) {
    let cost = |windows_per_epoch| {
        let mut model = Tft::new(TftConfig {
            context: 72,
            horizon: 72,
            quantiles: SCALING_LEVELS.to_vec(),
            epochs: 1,
            windows_per_epoch,
            seed: 5,
            ..TftConfig::default()
        });
        let (fitted, stats) = alloc::measure(|| model.fit(series));
        fitted.expect("fit");
        stats.bytes
    };
    // What a window costs on top of what one fit costs whatever its budget.
    let per_window = (cost(12) - cost(4)) / 8;
    assert!(
        per_window <= MAX_TFT_FIT_BYTES_PER_WINDOW,
        "tft fit requested {per_window} bytes per training window (ceiling {MAX_TFT_FIT_BYTES_PER_WINDOW})"
    );
}

/// One forecaster's predict: at most `ceiling` allocator calls, and as
/// many at horizon 72 as at horizon 8.
fn allocations_are_constant_in_horizon(
    mut model: impl Forecaster,
    series: &[f64],
    ceiling: u64,
) {
    model.fit(series).expect("fit");
    let context = &series[300..372];
    let few = predict_cost(&model, context, 8);
    let many = predict_cost(&model, context, 72);
    let name = model.name();
    assert!(few.allocs <= ceiling, "{name} predict allocated {} times (ceiling {ceiling})", few.allocs);
    assert_eq!(
        few.allocs, many.allocs,
        "{name} allocations grew with the horizon: {} at 8 steps, {} at 72",
        few.allocs, many.allocs
    );
}

/// One replan of the fleet's predictive policy: the forecast (matrix,
/// levels, z-scores), the effective-workload row and the plan.
fn replan_moves_its_plan(series: &[f64]) {
    let mut fc = SeasonalNaive::new(24);
    fc.fit(series).expect("fit");
    let manager = RobustAutoScalingManager::new(60.0, 1, ScalingStrategy::Fixed { tau: 0.9 });
    let schedule = ReplanSchedule { context: 24, horizon: 72 };
    let mut policy = QuantilePredictivePolicy::new("predictive", fc, manager, schedule);
    let replan_at = |policy: &mut QuantilePredictivePolicy<SeasonalNaive>, step: usize| {
        let obs = Observation {
            step,
            history: &series[..step],
            current_nodes: 1,
            theta: 60.0,
            min_nodes: 1,
            metrics_fresh: true,
            last_scale: ScaleOutcome::NoChange,
        };
        alloc::measure(|| policy.decide(&obs)).1
    };
    // The first replan fills an empty plan; later ones drop the old plan
    // for the new one. Allocation counts are the same.
    let allocs =
        (0..3).map(|k| replan_at(&mut policy, 100 + 72 * k).allocs).min().expect("three replans");
    assert_eq!(allocs, 5, "a replan allocates the forecast (3), the workload row and the plan");
}

#[test]
fn predict_allocations_are_constant_in_problem_size() {
    assert!(alloc::installed(), "counting allocator must route this binary's allocations");
    let series: Vec<f64> = (0..400).map(|t| 40.0 + 10.0 * (t as f64 * 0.26).sin()).collect();
    deepar_allocations_are_constant_in_paths_and_horizon(&series);
    tft_allocations_are_constant_in_context(&series);
    tft_fit_bytes_per_window(&series);
    allocations_are_constant_in_horizon(SeasonalNaive::new(24), &series, 3);
    allocations_are_constant_in_horizon(LastValue::new(), &series, 3);
    allocations_are_constant_in_horizon(Arima::new(ArimaConfig::default()), &series, 14);
    allocations_are_constant_in_horizon(
        HoltWinters::new(HoltWintersConfig { period: 24, ..HoltWintersConfig::default() }),
        &series,
        5,
    );
    for dist in [DistKind::Gaussian, DistKind::StudentT] {
        let cfg = MlpProbConfig {
            hidden: vec![16],
            dist,
            epochs: 1,
            windows_per_epoch: 4,
            seed: 5,
            ..MlpProbConfig::default()
        };
        allocations_are_constant_in_horizon(MlpProb::new(cfg), &series, MAX_MLP_ALLOCS);
    }
    replan_moves_its_plan(&series);
}
