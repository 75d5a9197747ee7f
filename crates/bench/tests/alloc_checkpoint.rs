//! Allocation ratchet for `checkpoint::save` and `checkpoint::load`.
//!
//! `load` used to build a `Json` tree per line and decode from it: 51
//! allocations per captured event (every key and string once for the
//! tree and again for the value, the event cloned into its sink) on top
//! of rebuilding the fleet from the header's spec. It then streamed typed
//! values from a borrowed reader and rebuilt each event: its field vector
//! and string values, 1.5 allocations an event. Since schema v2 a
//! captured event is the body of its trace line, checked in place and
//! copied into the tenant's capture, so what `load` allocates beyond the
//! rebuild is the amortised growth of the step records, the capture's
//! bodies and their ends (sized once from the rest of the line), a fixed
//! handful of vectors per tenant and the telemetry cells — nothing per
//! event. `alloc_emit.rs` holds the emit side.
//!
//! `save` copies each tenant's rendered bodies out of its capture into
//! the one output `String`, so once a capture is settled its count does
//! not depend on how many events were captured at all. The save that
//! settles renders the events captured since the last one into the
//! capture's bodies, which grow by doubling: per-tenant growth again, no
//! allocation per event.
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

/// Beyond the rebuild, `load` may allocate one per this many step records
/// (the step vector's doublings) ...
const STEPS_PER_LOAD_ALLOC: u64 = 256;
/// ... this much per telemetry cell (name, labels, registry key,
/// histogram parts) ...
const LOAD_PER_CELL: u64 = 12;
/// ... and this much per tenant for everything else on its line (plan,
/// node, failure, outage and step vectors, the bodies and their ends, and
/// their growth).
const LOAD_PER_TENANT: u64 = 64;
/// `save` snapshots each tenant (plan, step records, nodes) and dumps
/// each cell (name, labels); the output buffer's own doublings ride in
/// the fixed part.
const SAVE_PER_TENANT: u64 = 8;
const SAVE_PER_CELL: u64 = 5;
const SAVE_FIXED: u64 = 48;
/// A save that settles may also grow each tenant's bodies and their ends
/// (measured 4 at tick 40, 3 at tick 130).
const SETTLE_PER_TENANT: u64 = 8;

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
        // The events captured since the last save are rendered by this
        // one; it is counted once, as the natural run makes it.
        let (text, settling) = alloc::measure(|| save(&sup, &cfg, &tel));
        let text = text.expect("checkpointable fleet");
        let events = text.matches("{\"ts_us\":0,").count() as u64;
        let cells = text.matches("{\"name\":\"").count() as u64;
        let steps = TENANTS as u64 * tick;
        events_at.push(events);
        let save_ceiling = SAVE_PER_TENANT * TENANTS as u64 + SAVE_PER_CELL * cells + SAVE_FIXED;
        let ceiling = save_ceiling + SETTLE_PER_TENANT * TENANTS as u64;
        assert!(
            settling.allocs <= ceiling,
            "tick {tick}: the settling save allocated {} times (ceiling {ceiling}: {cells} cells, \
             {events} events captured)",
            settling.allocs
        );

        let loading = cost(|| load(&text, &Telemetry::live(), Obs::noop()).expect("loads"));
        let decode = loading.saturating_sub(rebuild);
        let ceiling =
            steps / STEPS_PER_LOAD_ALLOC + LOAD_PER_CELL * cells + LOAD_PER_TENANT * TENANTS as u64;
        assert!(
            decode <= ceiling,
            "tick {tick}: load allocated {loading} times, {decode} beyond the {rebuild} of a \
             rebuild (ceiling {ceiling}: {events} events, {steps} steps, {cells} cells)"
        );

        let saving = cost(|| save(&sup, &cfg, &tel).expect("saves"));
        assert!(
            saving <= save_ceiling,
            "tick {tick}: save allocated {saving} times (ceiling {save_ceiling}: {cells} cells, \
             {events} events captured)"
        );
    }
    // The two ticks really are different problem sizes.
    assert!(events_at[1] > 2 * events_at[0] && events_at[0] > 20 * TENANTS as u64, "{events_at:?}");
    std::env::remove_var("RPAS_THREADS");
}
