//! Allocation ratchet for `checkpoint::save` and `checkpoint::load`.
//!
//! A checkpoint is the fleet's header plus a digest, so:
//!
//! * `save` allocates a constant plus one metric exposition (the digest
//!   hashes `tel.snapshot().exposition()`), whatever the tick;
//! * `load` allocates no more than a bare build of the fleet plus its
//!   replay to the same tick, plus one exposition and a constant;
//! * the exposition itself allocates a constant, however many cells the
//!   registry holds.
//!
//! The test pins all three at two tick counts of one fleet, so a per-tenant,
//! per-event, per-step or per-cell allocation that creeps into any fails here
//! instead of showing up as a slow ledger row.
//!
//! Kept to a single `#[test]` in its own binary: the counting allocator
//! observes the whole process (see `alloc_ratchet.rs`).

use rpas_bench::alloc;
use rpas_core::checkpoint::{load, save};
use rpas_core::{FleetConfig, FleetEngine, FleetSupervisor, ReplanSchedule, SupervisorConfig};
use rpas_obs::Obs;
use rpas_simdb::FaultConfig;
use rpas_telemetry::{SloSpec, Telemetry};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const TENANTS: usize = 8;

/// One metric exposition: the text's doublings and the snapshot's copy
/// (measured 10 at both ticks), whatever the number of cells; a render
/// that allocates per cell is hundreds here.
const EXPOSITION: u64 = 12;
/// `save` beyond the exposition: the output buffer's doublings (measured
/// 7 at both ticks).
const SAVE_FIXED: u64 = 12;
/// `load` beyond the build, the replay and the exposition: the header's
/// decoded config and the two digests' strings (measured 6 at both
/// ticks).
const LOAD_FIXED: u64 = 12;

/// The smallest count of a few repeats: the counters are process-wide and
/// libtest's main thread allocates now and then, which only ever adds.
fn cost<T>(mut f: impl FnMut() -> T) -> u64 {
    (0..5).map(|_| alloc::measure(&mut f).1.allocs).min().expect("five repeats")
}

fn supervised(cfg: &FleetConfig, tel: &Telemetry) -> FleetSupervisor {
    let engine = FleetEngine::with_telemetry(cfg, tel);
    FleetSupervisor::wrap_with(engine, SupervisorConfig::default(), tel)
}

#[test]
fn checkpoint_allocations_follow_what_the_state_owns() {
    assert!(alloc::installed(), "counting allocator must route this binary's allocations");
    // Counts are exact only single-threaded (the pool then runs a tick
    // inline, so the replay's fan-out allocates what `tick` does).
    std::env::set_var("RPAS_THREADS", "1");

    let mut cfg = FleetConfig::new(TENANTS, 11);
    cfg.days = 1;
    cfg.schedule = ReplanSchedule { context: 48, horizon: 24 };
    cfg.capture_events = true;
    cfg.faults = Some(FaultConfig::light());
    cfg.slo = Some(SloSpec::violation_rate_default());
    let tel = Telemetry::live();
    let mut sup = supervised(&cfg, &tel);

    for tick in [40u64, 130] {
        while sup.ticks_done() < tick {
            sup.tick();
        }
        let exposition = cost(|| tel.snapshot().exposition());
        assert!(
            exposition <= EXPOSITION,
            "tick {tick}: an exposition allocated {exposition} times, beyond {EXPOSITION}"
        );
        let text = save(&sup, &cfg, &tel).expect("checkpointable fleet");
        let saving = cost(|| save(&sup, &cfg, &tel).expect("saves"));
        assert!(
            saving <= exposition + SAVE_FIXED,
            "tick {tick}: save allocated {saving} times, beyond the {exposition} of an \
             exposition plus {SAVE_FIXED}"
        );

        let replay = cost(|| {
            let mut fresh = supervised(&cfg, &Telemetry::live());
            while fresh.ticks_done() < tick {
                fresh.tick();
            }
            fresh
        });
        let loading = cost(|| load(&text, &Telemetry::live(), Obs::noop()).expect("loads"));
        let ceiling = replay + exposition + LOAD_FIXED;
        assert!(
            loading <= ceiling,
            "tick {tick}: load allocated {loading} times (ceiling {ceiling}: {replay} to build \
             and replay, {exposition} for an exposition, {LOAD_FIXED} more)"
        );
    }
    std::env::remove_var("RPAS_THREADS");
}
