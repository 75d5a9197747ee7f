//! `fleet_steady` / `fleet_observed`: one supervised tick over the whole
//! fleet per op; every fleet is run to completion and finished inside
//! the timed phase, builds after the first are untimed.

use crate::clock::now_ns;
use crate::config::{self, Workload};
use crate::outcome::{Budget, Outcome, References, Segment};
use crate::spans::Tracer;
use crate::stats::Fnv;
use rpas_core::{FleetConfig, FleetEngine, FleetReport, FleetSupervisor};
use rpas_telemetry::Telemetry;
use rpas_tsmath::rng::child_seed;

/// A built, supervised fleet with the registry it records into.
pub struct Fleet {
    /// The supervisor driving the fleet.
    pub sup: FleetSupervisor,
    /// Live for observed fleets, dark otherwise.
    pub tel: Telemetry,
    /// The configuration the fleet was built from.
    pub cfg: FleetConfig,
}

impl Fleet {
    /// Build the fleet `cfg` describes; `live` decides whether sessions
    /// and resilience ladders record into a live registry.
    pub fn build(cfg: FleetConfig, live: bool) -> Self {
        let tel = if live { Telemetry::live() } else { Telemetry::noop() };
        let engine = FleetEngine::with_telemetry(&cfg, &tel);
        let sup = FleetSupervisor::wrap_with(engine, config::supervisor(), &tel);
        Self { sup, tel, cfg }
    }

    /// Finish the run: the fleet report (sanitised trace render and SLO
    /// evaluation included) plus the metric exposition.
    pub fn finish(self) -> (FleetReport, String) {
        let report = self.sup.finish();
        let exposition = self.tel.snapshot().exposition();
        (report, exposition)
    }
}

fn is_observed(workload: Workload) -> bool {
    workload == Workload::FleetObserved
}

/// Build fleet number `r` of a fleet workload.
fn build(workload: Workload, seed: u64, r: u64) -> Fleet {
    let (tenants, fleet_seed) = (workload.tenants(), child_seed(seed, r));
    if is_observed(workload) {
        Fleet::build(config::observed_fleet(tenants, fleet_seed), true)
    } else {
        Fleet::build(config::dark_fleet(tenants, fleet_seed), false)
    }
}

/// Digest everything a finished fleet reports.
pub fn digest_report(report: &FleetReport, exposition: &str) -> u64 {
    let mut f = Fnv::default();
    for t in &report.tenants {
        f.u64(u64::from(t.id.0)).str(t.preset).str(t.policy);
        f.u64(t.qos.steps as u64)
            .f64(t.qos.violation_rate)
            .u64(t.qos.over_provision_node_steps)
            .u64(t.qos.node_steps)
            .u64(t.qos.regret_node_steps as u64)
            .u64(t.faults_applied);
    }
    let q = &report.qos;
    f.u64(q.tenants as u64)
        .u64(q.total_steps)
        .f64(q.violation_rate)
        .u64(q.over_provision_node_steps)
        .u64(q.node_steps)
        .u64(q.p95_regret_node_steps as u64)
        .u64(q.max_regret_node_steps as u64);
    f.u64(report.trace_lines.len() as u64);
    for line in &report.trace_lines {
        f.str(line);
    }
    for slo in report.slo.iter().chain(&report.availability) {
        f.str(&slo.render());
    }
    f.u64(report.quarantined.len() as u64);
    f.str(exposition);
    f.finish()
}

/// Check a finished fleet against what the workload promises.
fn verify(workload: Workload, report: &FleetReport) -> Result<(), String> {
    if report.tenants.len() != workload.tenants() {
        return Err(format!(
            "{} tenants reported, {} built",
            report.tenants.len(),
            workload.tenants()
        ));
    }
    if workload == Workload::FleetSteady && !report.quarantined.is_empty() {
        return Err(format!(
            "{} tenants quarantined on a fault-free fleet",
            report.quarantined.len()
        ));
    }
    if is_observed(workload) && (report.trace_lines.is_empty() || report.slo.is_none()) {
        return Err("observed fleet reported no captured events or no SLO".into());
    }
    Ok(())
}

/// Set-up: build the first fleet, tick it through the warm-up, finish it.
fn setup(workload: Workload, seed: u64) {
    let mut fleet = build(workload, seed, 0);
    for _ in 0..config::FLEET_WARMUP_TICKS {
        fleet.sup.tick();
    }
    std::hint::black_box(fleet.finish());
}

/// Run the workload: fleets with seeds cycling over
/// [`config::FLEET_SEEDS`] children of the run seed, each ticked to
/// completion and finished under the clock.
pub fn run(workload: Workload, budget: &Budget, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.set_up(budget, || {
        setup(workload, budget.seed);
        Ok(())
    })?;

    // In a traced run the tracer alternates tick by tick inside every
    // fleet, so traced and untraced ticks see the same fleet under the
    // same conditions: fleet `n` traces the ticks of parity `n + 1`, and
    // odd fleets also trace `finish`. Two consecutive fleets therefore
    // trace exactly one fleet's worth of spans; an unpaired last fleet
    // is cut from the span list so the shares stay whole.
    let mut refs = References::new(config::FLEET_SEEDS as usize);
    let deadline = budget.deadline_ns();
    let (mut n, mut paired_spans) = (0u64, 0);
    // At least one fleet per seed, so the digest covers them all.
    while now_ns() < deadline || n < config::FLEET_SEEDS {
        let k = n % config::FLEET_SEEDS;
        let mut fleet = build(workload, budget.seed, k);
        let (mut work, t_start, sampling) = (0usize, now_ns(), out.reference.spent_ns());
        while !fleet.sup.is_done() {
            tr.on = budget.traced && (fleet.sup.ticks_done() + n) % 2 == 1;
            tr.next_op();
            let t0 = now_ns();
            work += tr.scope("tick", |_| fleet.sup.tick());
            out.record_latency(tr.on, t0, now_ns());
        }
        out.attempted += fleet.sup.ticks_done();
        tr.on = budget.traced && n % 2 == 1;
        let (report, exposition) = tr.scope("finish", |_| fleet.finish());
        if !budget.traced {
            // The fleet's timed stretch, less the reference samples taken inside it.
            let end_ns = now_ns();
            let timed_ns = end_ns - t_start - (out.reference.spent_ns() - sampling);
            out.segments.push(Segment { end_ns, secs: timed_ns as f64 / 1e9, work: work as f64 });
        }
        if n % 2 == 1 {
            paired_spans = tr.spans().len();
        }
        let verified = verify(workload, &report).map(|()| digest_report(&report, &exposition));
        out.settle(&mut refs, k as usize, "fleet", verified);
        n += 1;
    }
    tr.on = false;
    tr.truncate(paired_spans);
    out.end_timed_phase()?;

    // Two threads must report what one thread reported (fleet 0, untimed).
    let threads = config::cross_check_threads();
    if let (Some(reference), true) = (refs.get(0), threads > config::THREADS) {
        std::env::set_var("RPAS_THREADS", threads.to_string());
        let mut fleet = build(workload, budget.seed, 0);
        std::env::set_var("RPAS_THREADS", config::THREADS.to_string());
        fleet.sup.run_to_completion();
        let (report, exposition) = fleet.finish();
        if digest_report(&report, &exposition) != reference {
            out.determinism_broken = true;
            out.fail(format!("fleet 0 reports differently at {threads} threads than at one"));
        }
    }
    out.digest = refs.digest();
    Ok(out)
}
