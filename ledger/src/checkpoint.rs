//! `checkpoint_roundtrip`: `checkpoint::save` followed by
//! `checkpoint::load` of a 64-tenant observed fleet stopped mid-run.

use crate::clock::now_ns;
use crate::config::{self, Workload};
use crate::fleet::{digest_report, Fleet};
use crate::outcome::{Budget, Outcome};
use crate::spans::Tracer;
use crate::stats::Fnv;
use rpas_core::checkpoint;
use rpas_obs::Obs;
use rpas_telemetry::Telemetry;
use rpas_tsmath::rng::child_seed;

/// Build the observed fleet and advance it to the checkpoint tick.
pub fn fleet_at_checkpoint_tick(seed: u64) -> Fleet {
    let tenants = Workload::CheckpointRoundtrip.tenants();
    let mut fleet = Fleet::build(config::observed_fleet(tenants, child_seed(seed, 0)), true);
    while fleet.sup.ticks_done() < config::CHECKPOINT_TICK {
        fleet.sup.tick();
    }
    fleet
}

/// One round trip: the text saved, and the fleet loaded back from it.
pub fn round_trip(fleet: &Fleet, tr: &mut Tracer) -> Result<(String, Fleet), String> {
    tr.scope("op", |tr| {
        let text = tr.scope("save", |_| checkpoint::save(&fleet.sup, &fleet.cfg, &fleet.tel))?;
        let tel = Telemetry::live();
        let (sup, cfg) = tr.scope("load", |_| checkpoint::load(&text, &tel, Obs::noop()))?;
        Ok((text, Fleet { sup, tel, cfg }))
    })
}

/// Run the workload. Every op's `save(load(save(x)))` must equal
/// `save(x)` byte for byte; after the timed phase one loaded fleet is
/// resumed and must report what the uninterrupted fleet reports.
pub fn run(budget: &Budget, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let fleet = out.set_up(budget, || {
        let fleet = fleet_at_checkpoint_tick(budget.seed);
        round_trip(&fleet, &mut Tracer::new(0)).map(|_| fleet)
    })?;

    let mut reference: Option<String> = None;
    let mut resumed = None;
    let deadline = budget.deadline_ns();
    let mut n = 0u64;
    while now_ns() < deadline {
        tr.on = budget.traced && n % 2 == 1;
        tr.next_op();
        let t0 = now_ns();
        let result = round_trip(&fleet, tr);
        out.record_op(tr.on, t0, now_ns());
        match result {
            Ok((text, loaded)) => {
                let again = checkpoint::save(&loaded.sup, &loaded.cfg, &loaded.tel)?;
                if again != text {
                    out.fail("save(load(save(x))) differs from save(x)");
                }
                if *reference.get_or_insert_with(|| text.clone()) != text {
                    out.determinism_broken = true;
                    out.fail("two saves of one fleet differ");
                }
                resumed = Some(loaded);
            }
            Err(why) => out.fail(why),
        }
        n += 1;
    }
    tr.on = false;
    out.end_timed_phase()?;

    let mut digest = Fnv::default();
    digest.str(reference.as_deref().unwrap_or(""));
    if let Some(mut resumed) = resumed {
        let mut straight = fleet;
        resumed.sup.run_to_completion();
        straight.sup.run_to_completion();
        let (a, a_metrics) = resumed.finish();
        let (b, b_metrics) = straight.finish();
        let (a, b) = (digest_report(&a, &a_metrics), digest_report(&b, &b_metrics));
        if a != b {
            out.determinism_broken = true;
            out.fail("the resumed fleet reports differently than the uninterrupted one");
        }
        digest.u64(b);
    }
    out.digest = digest.finish();
    Ok(out)
}
