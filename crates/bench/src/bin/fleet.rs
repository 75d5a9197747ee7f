//! Fleet-throughput benchmark: tenants×ticks per second of the
//! [`FleetEngine`] at 1, 2, and max worker threads, plus the fleet's
//! allocation profile under the counting allocator and a pinned
//! perf/allocation budget.
//!
//! Each setting rebuilds the same seeded fleet (build time is reported
//! separately) and times `run_to_completion`; the reported figure is the
//! best of `RPAS_BENCH_SAMPLES` runs (default 3 — a whole fleet run is
//! far above timer resolution, so best-of is robust without the
//! calibrated batching the micro-benchmarks need). On a single-core host
//! the multi-thread rows are skipped entirely and the result is marked
//! `degenerate_single_core` — a "speedup" measured with one hardware
//! thread is pure scheduler noise, not data. Results land in
//! `BENCH_fleet.json` at the workspace root so the perf trajectory is
//! recorded alongside the code.
//!
//! The allocation profile runs at `RPAS_THREADS=1` (counts are exact and
//! deterministic there) and attributes allocator traffic per phase:
//! fleet build, the full supervised run with real autoscaling policies
//! (replans dominate — they fit forecasters), and the supervision layer
//! alone (hold-steady policies, post-warm-up), which must not allocate
//! at all.
//!
//! `fleet-budget.json` pins two ratchets in the spirit of
//! `telemetry-budget.json`: the supervised-overhead fraction and the
//! steady-state allocations per supervised tick. Breaching either fails
//! the run (exit 1); improvements are frozen with `RPAS_WRITE_BUDGET=1`.
//!
//! Run: `cargo run --release -p rpas-bench --bin fleet`
//! (`RPAS_PROFILE=quick` shrinks the fleet for a smoke test.)

#![expect(clippy::disallowed_types, reason = "a timing program: Instant is what it measures with")]

use rpas_bench::alloc::{self, AllocStats};
use rpas_bench::bench_obs;
use rpas_bench::output::workspace_file;
use rpas_core::{FleetConfig, FleetEngine, FleetSupervisor};
use rpas_obs::catalog;
use rpas_simdb::{Observation, ScalingPolicy};
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const BUDGET_FILE: &str = "fleet-budget.json";

/// One measured thread setting.
struct Row {
    threads: usize,
    build_secs: f64,
    run_secs: f64,
    tenant_ticks_per_sec: f64,
}

/// Hold-steady policy for the supervision-layer allocation probe: after
/// the initial transition every tick is a no-change decision, so any
/// allocator traffic belongs to the supervisor/session machinery, not
/// the policy.
struct Hold;

impl ScalingPolicy for Hold {
    fn name(&self) -> &'static str {
        "hold"
    }
    fn decide(&mut self, obs: &Observation<'_>) -> u32 {
        obs.min_nodes
    }
}

fn bench_threads(cfg: &FleetConfig, threads: usize, samples: usize) -> Row {
    std::env::set_var("RPAS_THREADS", threads.to_string());
    let ticks = (cfg.tenants * cfg.days * 144) as f64;
    let mut best_build = f64::INFINITY;
    let mut best_run = f64::INFINITY;
    for _ in 0..samples {
        let t0 = Instant::now();
        let mut engine = FleetEngine::new(cfg);
        let built = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        engine.run_to_completion();
        let ran = t1.elapsed().as_secs_f64();
        std::hint::black_box(engine.finish());
        best_build = best_build.min(built);
        best_run = best_run.min(ran);
    }
    std::env::remove_var("RPAS_THREADS");
    Row {
        threads,
        build_secs: best_build,
        run_secs: best_run,
        tenant_ticks_per_sec: ticks / best_run,
    }
}

/// Allocation profile of one supervised fleet run at `RPAS_THREADS=1`.
struct AllocProfile {
    build: AllocStats,
    run: AllocStats,
    /// Supervision layer alone (hold policies, post-warm-up).
    steady: AllocStats,
    steady_ticks: u64,
}

fn alloc_profile(cfg: &FleetConfig) -> AllocProfile {
    std::env::set_var("RPAS_THREADS", "1");

    // Real policies: what a paper-configuration fleet allocates, split
    // into build (sessions, forecasters, pool) and run (dominated by
    // periodic replans fitting quantile models).
    let (mut sup, build) =
        alloc::measure(|| FleetSupervisor::wrap(FleetEngine::new(cfg)));
    let (_, run) = alloc::measure(|| sup.run_to_completion());
    std::hint::black_box(sup.finish());

    // Supervision layer alone: hold-steady policies make every tick a
    // no-change decision, and the first ticks absorb the initial scale
    // transition plus any lazy one-time work. Whatever the armed section
    // counts after that is pure supervisor/session overhead — the
    // steady-state budget pins it at zero.
    let mut engine = FleetEngine::new(cfg);
    for t in 0..cfg.tenants {
        engine.set_policy(t, Box::new(Hold));
    }
    let mut sup = FleetSupervisor::wrap(engine);
    let warmup = 16u64.min(sup.total_ticks());
    for _ in 0..warmup {
        sup.tick();
    }
    let steady_ticks = sup.total_ticks() - warmup;
    let (_, steady) = alloc::measure(|| {
        while !sup.is_done() {
            sup.tick();
        }
    });
    std::hint::black_box(sup.finish());

    std::env::remove_var("RPAS_THREADS");
    AllocProfile { build, run, steady, steady_ticks }
}

/// The pinned perf/allocation budget.
struct Budget {
    supervised_overhead_frac_max: f64,
    steady_allocs_per_tick_max: f64,
}

fn read_budget(path: &std::path::Path) -> Result<Budget, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e} (freeze one with RPAS_WRITE_BUDGET=1)", path.display()))?;
    let json = rpas_obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let fields = match &json {
        rpas_obs::Json::Obj(fields) => fields,
        _ => return Err(format!("{}: expected a JSON object", path.display())),
    };
    let num = |key: &str| -> Result<f64, String> {
        fields
            .get(key)
            .and_then(|v| match v {
                rpas_obs::Json::Num(n) => Some(*n),
                _ => None,
            })
            .ok_or_else(|| format!("{}: missing numeric {key}", path.display()))
    };
    Ok(Budget {
        supervised_overhead_frac_max: num("supervised_overhead_frac_max")?,
        steady_allocs_per_tick_max: num("steady_allocs_per_tick_max")?,
    })
}

fn main() {
    assert!(
        alloc::installed(),
        "counting allocator not routing allocations; #[global_allocator] install missing"
    );
    let quick = matches!(std::env::var("RPAS_PROFILE").ok().as_deref(), Some("quick"));
    let (tenants, days) = if quick { (64, 2) } else { (256, 4) };
    let mut cfg = FleetConfig::new(tenants, 7);
    cfg.days = days;

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let degenerate = cores == 1;
    let mut settings = if degenerate { vec![1usize] } else { vec![1usize, 2, cores] };
    settings.sort_unstable();
    settings.dedup();

    let samples = std::env::var("RPAS_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3);

    println!(
        "fleet throughput — {tenants} tenant(s) × {} tick(s), {cores} core(s), best of {samples}",
        days * 144
    );
    if degenerate {
        println!("single-core host: multi-thread rows skipped (no meaningful speedup)");
    }

    // Untimed warm-up so the first measured setting doesn't absorb
    // allocator / page-cache cold-start cost.
    {
        let mut engine = FleetEngine::new(&cfg);
        engine.run_to_completion();
        std::hint::black_box(engine.finish());
    }

    let mut rows = Vec::new();
    for &threads in &settings {
        let row = bench_threads(&cfg, threads, samples);
        println!(
            "threads {threads:>3}: build {:.3} s, run {:.3} s, {:.0} tenant-ticks/s",
            row.build_secs, row.run_secs, row.tenant_ticks_per_sec
        );
        bench_obs().emit(catalog::BENCH_FLEET_THROUGHPUT, |e| {
            e.field("threads", row.threads)
                .field("tenants", tenants)
                .field("tenant_ticks_per_sec", row.tenant_ticks_per_sec)
                .field("build_us", row.build_secs * 1e6)
                .field("run_us", row.run_secs * 1e6);
        });
        rows.push(row);
    }

    let base = rows[0].tenant_ticks_per_sec;
    let max_row = rows.last().expect("at least one setting");
    let speedup = if degenerate {
        None
    } else {
        let s = max_row.tenant_ticks_per_sec / base;
        println!("speedup at {} thread(s) vs 1: {s:.2}×", max_row.threads);
        Some(s)
    };

    // Live-telemetry variant at the default thread count: what the metric
    // registry's recording path adds to a whole fleet run (the dark path
    // is budgeted separately by the telemetry_overhead bin).
    let tel = rpas_telemetry::Telemetry::live();
    let mut tel_run = f64::INFINITY;
    for _ in 0..samples {
        let mut engine = FleetEngine::with_telemetry(&cfg, &tel);
        let t = Instant::now();
        engine.run_to_completion();
        tel_run = tel_run.min(t.elapsed().as_secs_f64());
        std::hint::black_box(engine.finish());
    }
    let tel_overhead = tel_run / max_row.run_secs - 1.0;
    println!(
        "live telemetry: run {tel_run:.3} s ({:+.1}% vs dark at {} thread(s))",
        tel_overhead * 100.0,
        max_row.threads
    );
    bench_obs().emit(catalog::BENCH_FLEET_TELEMETRY_OVERHEAD, |e| {
        e.field("run_us", tel_run * 1e6).field("overhead_frac", tel_overhead);
    });

    // Supervised variant: what the FleetSupervisor's panic isolation
    // (catch_unwind per tenant step, guard bookkeeping, outage series)
    // adds to a healthy fleet run. That is a cost per tenant step, and a
    // whole run is a few milliseconds — less than a virtualised second
    // core takes to wake — so it is measured on one thread, against a
    // bare run re-measured here sample by sample alongside it.
    std::env::set_var("RPAS_THREADS", "1");
    let (mut bare_run, mut sup_run) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..samples {
        let mut engine = FleetEngine::new(&cfg);
        let t = Instant::now();
        engine.run_to_completion();
        bare_run = bare_run.min(t.elapsed().as_secs_f64());
        std::hint::black_box(engine.finish());

        let mut sup = FleetSupervisor::wrap(FleetEngine::new(&cfg));
        let t = Instant::now();
        sup.run_to_completion();
        sup_run = sup_run.min(t.elapsed().as_secs_f64());
        std::hint::black_box(sup.finish());
    }
    std::env::remove_var("RPAS_THREADS");
    let sup_overhead = sup_run / bare_run - 1.0;
    println!(
        "supervised: run {sup_run:.3} s ({:+.1}% vs bare engine at 1 thread)",
        sup_overhead * 100.0
    );
    bench_obs().emit(catalog::BENCH_FLEET_SUPERVISOR_OVERHEAD, |e| {
        e.field("run_us", sup_run * 1e6).field("overhead_frac", sup_overhead);
    });

    // Allocation profile (deterministic at RPAS_THREADS=1).
    let prof = alloc_profile(&cfg);
    let tenant_ticks = (tenants * days * 144) as f64;
    let run_allocs_per_tenant_tick = prof.run.allocs as f64 / tenant_ticks;
    let steady_allocs_per_tick = if prof.steady_ticks == 0 {
        0.0
    } else {
        prof.steady.allocs as f64 / prof.steady_ticks as f64
    };
    println!(
        "allocs: build {} ({} KiB), run {} ({:.1}/tenant-tick), steady {} over {} tick(s) ({:.3}/tick)",
        prof.build.allocs,
        prof.build.bytes / 1024,
        prof.run.allocs,
        run_allocs_per_tenant_tick,
        prof.steady.allocs,
        prof.steady_ticks,
        steady_allocs_per_tick
    );
    bench_obs().emit(catalog::BENCH_FLEET_ALLOC_PROFILE, |e| {
        e.field("build_allocs", prof.build.allocs)
            .field("run_allocs", prof.run.allocs)
            .field("steady_allocs", prof.steady.allocs)
            .field("steady_ticks", prof.steady_ticks);
    });

    let budget_path = workspace_file(BUDGET_FILE);
    if std::env::var("RPAS_WRITE_BUDGET").is_ok() {
        // Freeze with headroom: the overhead gate guards against the
        // supervision layer growing real per-tick work again, not
        // against timer noise (hence the 0.10 floor — the pre-pool
        // supervisor sat at ~0.36); the alloc gate is exact-count based
        // and stays tight.
        let overhead_max = (sup_overhead * 2.5).max(0.10);
        let allocs_max = if steady_allocs_per_tick == 0.0 {
            0.0
        } else {
            (steady_allocs_per_tick * 1.5).ceil()
        };
        let json = format!(
            "{{\n  \"version\": 1,\n  \"supervised_overhead_frac_max\": {overhead_max:.4},\n  \"steady_allocs_per_tick_max\": {allocs_max}\n}}\n"
        );
        std::fs::write(&budget_path, json).expect("write budget file");
        println!(
            "[froze fleet budget (overhead ≤ {overhead_max:.4}, steady allocs/tick ≤ {allocs_max}) to {}]",
            budget_path.display()
        );
    } else {
        match read_budget(&budget_path) {
            Ok(budget) => {
                let overhead_ok = sup_overhead <= budget.supervised_overhead_frac_max;
                let allocs_ok = steady_allocs_per_tick <= budget.steady_allocs_per_tick_max;
                println!(
                    "fleet budget: overhead {sup_overhead:.4} vs {} — {}, steady allocs/tick {steady_allocs_per_tick:.3} vs {} — {}",
                    budget.supervised_overhead_frac_max,
                    if overhead_ok { "OK" } else { "OVER BUDGET" },
                    budget.steady_allocs_per_tick_max,
                    if allocs_ok { "OK" } else { "OVER BUDGET" },
                );
                if !overhead_ok || !allocs_ok {
                    bench_obs().emit(catalog::BENCH_FLEET_BUDGET_EXCEEDED, |e| {
                        e.field("supervised_overhead_frac", sup_overhead)
                            .field("steady_allocs_per_tick", steady_allocs_per_tick);
                    });
                    bench_obs().flush();
                    std::process::exit(1);
                }
            }
            Err(e) => {
                bench_obs().emit(catalog::BENCH_FLEET_BUDGET_MISSING, |ev| {
                    ev.field("error", e);
                });
                bench_obs().flush();
                std::process::exit(1);
            }
        }
    }

    // Hand-rolled JSON (the workspace has no serde); one object per file.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"fleet_throughput\",\n");
    json.push_str(&format!("  \"profile\": \"{}\",\n", if quick { "quick" } else { "full" }));
    json.push_str(&format!("  \"tenants\": {tenants},\n"));
    json.push_str(&format!("  \"ticks_per_tenant\": {},\n", days * 144));
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!("  \"degenerate_single_core\": {degenerate},\n"));
    json.push_str(&format!("  \"samples\": {samples},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {}, \"build_secs\": {:.6}, \"run_secs\": {:.6}, \"tenant_ticks_per_sec\": {:.1}}}{}\n",
            r.threads,
            r.build_secs,
            r.run_secs,
            r.tenant_ticks_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    match speedup {
        Some(s) => json.push_str(&format!("  \"speedup_max_vs_1\": {s:.3},\n")),
        None => json.push_str("  \"speedup_max_vs_1\": null,\n"),
    }
    json.push_str(&format!(
        "  \"telemetry_run_secs\": {tel_run:.6},\n  \"telemetry_overhead_frac\": {tel_overhead:.4},\n"
    ));
    json.push_str(&format!(
        "  \"supervised_run_secs\": {sup_run:.6},\n  \"supervised_overhead_frac\": {sup_overhead:.4},\n"
    ));
    json.push_str(&format!(
        "  \"build_allocs\": {},\n  \"build_bytes\": {},\n",
        prof.build.allocs, prof.build.bytes
    ));
    json.push_str(&format!(
        "  \"run_allocs_per_tenant_tick\": {run_allocs_per_tenant_tick:.2},\n"
    ));
    json.push_str(&format!(
        "  \"steady_allocs_per_tick\": {steady_allocs_per_tick:.3},\n  \"steady_ticks\": {}\n",
        prof.steady_ticks
    ));
    json.push_str("}\n");

    let path = workspace_file("BENCH_fleet.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("[wrote {}]", path.display()),
        Err(err) => bench_obs().emit(catalog::BENCH_WRITE_FAILED, |e| {
            e.field("path", path.display().to_string()).field("error", err.to_string());
        }),
    }
    bench_obs().flush();
}
