//! Allocation ratchet for `checkpoint::save` and `checkpoint::load`.
//!
//! `load` used to build a `Json` tree per line and decode from it: 51
//! allocations per captured event (every key and string once for the
//! tree and again for the value, the event cloned into its sink) on top
//! of rebuilding the fleet from the header's spec. It now streams typed
//! values from a borrowed reader, so what it allocates beyond the rebuild
//! is what the restored state *owns*: an event's field vector and its
//! string values, the amortised growth of the step-record and event
//! vectors, and a fixed handful of vectors per tenant. The span, the name
//! and every field key are borrowed from `rpas_obs::catalog`, as they
//! were at the emit site (an entry lists its keys). `alloc_emit.rs` holds
//! the emit side.
//!
//! `save` used to clone every tenant's capture buffer and escape every
//! string into a temporary; it now encodes the buffer in place into the
//! one output `String`, so its count does not depend on how many events
//! were captured at all.
//!
//! The test pins both as *shapes* at two tick counts of one fleet — the
//! same per-event, per-tenant and per-cell coefficients must hold at
//! both — so a per-member or per-event allocation that creeps back in
//! fails here instead of showing up as a slow ledger row.
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

/// Beyond the rebuild, `load` may allocate this much per captured event
/// (the field vector, its regrowth for a 6- or 7-field event, and the
/// string values among the fields; measured 1.5, down from 5.8 when each
/// key was an owned `String`) ...
const LOAD_PER_EVENT: u64 = 2;
/// ... one per this many step records (the step vector's doublings) ...
const STEPS_PER_LOAD_ALLOC: u64 = 256;
/// ... this much per telemetry cell (name, labels, registry key,
/// histogram parts) ...
const LOAD_PER_CELL: u64 = 12;
/// ... and this much per tenant for everything else on its line (plan,
/// node, failure, outage, step and event vectors and their growth).
const LOAD_PER_TENANT: u64 = 64;
/// `save` snapshots each tenant (plan, step records, nodes) and dumps
/// each cell (name, labels); the output buffer's own doublings ride in
/// the fixed part.
const SAVE_PER_TENANT: u64 = 8;
const SAVE_PER_CELL: u64 = 5;
const SAVE_FIXED: u64 = 48;

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
    // Counts are exact only single-threaded; `load` builds its own pool.
    std::env::set_var("RPAS_THREADS", "1");

    let mut cfg = FleetConfig::new(TENANTS, 11);
    cfg.days = 1;
    cfg.schedule = ReplanSchedule { context: 48, horizon: 24 };
    cfg.capture_events = true;
    cfg.faults = Some(FaultConfig::light());
    cfg.slo = Some(SloSpec::violation_rate_default());
    let tel = Telemetry::live();
    let mut sup = supervised(&cfg, &tel);
    let rebuild = cost(|| supervised(&cfg, &Telemetry::live()));

    let mut events_at = Vec::new();
    for tick in [40u64, 130] {
        while sup.ticks_done() < tick {
            sup.tick();
        }
        let text = save(&sup, &cfg, &tel).expect("checkpointable fleet");
        let events = text.matches("{\"l\":\"").count() as u64;
        let cells = text.matches("{\"name\":\"").count() as u64;
        let steps = TENANTS as u64 * tick;
        events_at.push(events);

        let loading = cost(|| load(&text, &Telemetry::live(), Obs::noop()).expect("loads"));
        let decode = loading.saturating_sub(rebuild);
        let ceiling = LOAD_PER_EVENT * events
            + steps / STEPS_PER_LOAD_ALLOC
            + LOAD_PER_CELL * cells
            + LOAD_PER_TENANT * TENANTS as u64;
        assert!(
            decode <= ceiling,
            "tick {tick}: load allocated {loading} times, {decode} beyond the {rebuild} of a \
             rebuild (ceiling {ceiling}: {events} events, {steps} steps, {cells} cells)"
        );

        let saving = cost(|| save(&sup, &cfg, &tel).expect("saves"));
        let ceiling = SAVE_PER_TENANT * TENANTS as u64 + SAVE_PER_CELL * cells + SAVE_FIXED;
        assert!(
            saving <= ceiling,
            "tick {tick}: save allocated {saving} times (ceiling {ceiling}: {cells} cells, \
             {events} events captured)"
        );
    }
    // The two ticks really are different problem sizes.
    assert!(events_at[1] > 2 * events_at[0] && events_at[0] > 20 * TENANTS as u64, "{events_at:?}");
    std::env::remove_var("RPAS_THREADS");
}
