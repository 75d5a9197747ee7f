//! The frozen benchmark's API, compiled in tier-1.
//!
//! `ledger/` is its own package, so `cargo test` never builds it: a change
//! that deletes or hides something it calls would pass tier-1 and fail the
//! benchmark. This file names every entry of `ledger/README.md` § "API
//! surface driven" — one line each, in that list's order, nothing run — so
//! such a change fails to compile here instead. Keep it to that list.
//!
//! Not nameable from the root package (no dependency edge): the last
//! entry, `rpas_bench::alloc::{CountingAlloc, measure, installed}`; the
//! `crates/bench/tests/alloc_*.rs` integration tests use all three.

use rpas::core::{
    checkpoint, plan_point, uncertainty_series, FleetEngine, FleetSupervisor,
    QuantilePredictivePolicy, ResilientManager, RobustAutoScalingManager, RollingSpec,
};
use rpas::forecast::{DeepAr, Forecaster, QuantileForecast, SeasonalNaive, Tft, SCALING_LEVELS};
use rpas::metrics::{coverage, provisioning_rates, weighted_quantile_loss};
use rpas::nn::{Dense, GruCell, MultiHeadAttention};
use rpas::obs::{json, Event, JsonlSink, MemorySink, Obs};
use rpas::par::WorkerPool;
use rpas::simdb::{FaultPlan, FixedPolicy, ScalingPolicy, SimSession};
use rpas::telemetry::{RatioSeries, SloReport, Snapshot, Telemetry};
use rpas::traces::{alibaba_like, google_like, Trace};
use rpas::tsmath::{rng, Matrix};

#[test]
#[expect(clippy::disallowed_methods, reason = "E1: ledger/ still calls Obs::info / Event::new, so its API list names them")]
fn every_entry_of_the_ledgers_api_list_still_exists() {
    // rpas_traces
    let _ = google_like;
    let _ = alibaba_like;
    let _: fn(String, u64, Vec<f64>) -> Trace = Trace::new;
    let _ = Trace::split_at;

    // rpas_forecast
    let _ = <DeepAr as Forecaster>::fit;
    let _ = <DeepAr as Forecaster>::forecast_quantiles;
    let _ = DeepAr::new;
    let _ = <Tft as Forecaster>::fit;
    let _ = <Tft as Forecaster>::forecast_quantiles;
    let _ = Tft::new;
    let _ = <SeasonalNaive as Forecaster>::fit;
    let _ = <SeasonalNaive as Forecaster>::forecast_quantiles;
    let _ = SeasonalNaive::new;
    let _ = QuantileForecast::series;
    let _ = QuantileForecast::values;
    let _ = QuantileForecast::is_monotone;
    let _ = SCALING_LEVELS;

    // rpas_nn, rpas_tsmath
    let _ = GruCell::new;
    let _ = GruCell::apply;
    let _ = MultiHeadAttention::new;
    let _ = MultiHeadAttention::forward;
    let _ = Dense::new;
    let _ = Dense::apply;
    let _ = Matrix::from_vec;
    let _ = Matrix::matvec;
    let _ = rng::seeded;
    let _ = rng::child_seed;
    let _ = rng::uniform;

    // rpas_core
    let _ = RollingSpec::windows;
    let _ = RobustAutoScalingManager::new;
    let _ = RobustAutoScalingManager::with_backend;
    let _ = RobustAutoScalingManager::plan;
    let _ = uncertainty_series;
    let _ = plan_point;
    let _ = QuantilePredictivePolicy::<SeasonalNaive>::new;
    let _ = ResilientManager::<FixedPolicy>::with_config;
    let _ = <ResilientManager<FixedPolicy> as ScalingPolicy>::decide;
    let _ = FleetEngine::with_telemetry;
    let _ = FleetEngine::tick;
    let _ = FleetEngine::set_policy;
    let _ = FleetEngine::finish;
    let _ = FleetSupervisor::wrap_with;
    let _ = FleetSupervisor::tick;
    let _ = FleetSupervisor::is_done;
    let _ = FleetSupervisor::ticks_done;
    let _ = FleetSupervisor::total_ticks;
    let _ = FleetSupervisor::run_to_completion;
    let _ = FleetSupervisor::finish;
    let _ = checkpoint::save;
    let _ = checkpoint::load;

    // rpas_metrics
    let _ = weighted_quantile_loss;
    let _ = coverage;
    let _ = provisioning_rates;

    // rpas_simdb (`ScalingPolicy` is named above)
    let _ = SimSession::new;
    let _ = SimSession::with_obs;
    let _ = SimSession::with_telemetry;
    let _ = SimSession::with_faults;
    let _ = SimSession::step::<FixedPolicy>;
    let _ = SimSession::finish;
    let _ = FaultPlan::build;

    // rpas_par
    let _ = WorkerPool::new;
    let _ = WorkerPool::for_each_mut::<u8, fn(usize, &mut u8)>;

    // rpas_obs
    let _ = Obs::noop;
    let _ = Obs::with_sink;
    let _: fn(&Obs, &'static str, &'static str, fn(&mut Event)) = Obs::info;
    let _ = MemorySink::new;
    let _ = JsonlSink::create;
    let _ = Event::new;
    let _: for<'a> fn(&'a mut Event, &'static str, u64) -> &'a mut Event = Event::field;
    let _ = Event::to_json;
    let _ = json::parse;

    // rpas_telemetry
    let _ = Telemetry::noop;
    let _ = Telemetry::live;
    let _ = Telemetry::counter;
    let _ = Telemetry::histogram;
    let _ = Telemetry::snapshot;
    let _ = Snapshot::exposition;
    let _ = SloReport::evaluate::<Vec<(String, RatioSeries)>>;
    let _ = RatioSeries::from_bools;
}
