//! Telemetry dark-path overhead benchmark with a pinned budget.
//!
//! The whole point of the `Telemetry` handle design is that a fleet
//! compiled with metrics but run without a live registry pays (almost)
//! nothing: a no-op `Counter::inc` is one branch on an `Option`. This
//! bench measures that dark path — plus the live path and a registry
//! lookup for context — and **fails (exit 1)** when the no-op counter
//! median exceeds the budget pinned in `telemetry-budget.json` at the
//! workspace root. The budget is a ratchet: regressions fail,
//! improvements can be frozen with `RPAS_WRITE_BUDGET=1`.
//!
//! Run: `cargo run --release -p rpas-bench --bin telemetry_overhead`

use rpas_bench::bench_obs;
use rpas_bench::harness::BenchGroup;
use rpas_bench::output::workspace_file;
use rpas_obs::catalog;
use rpas_telemetry::Telemetry;

const BUDGET_FILE: &str = "telemetry-budget.json";

/// Read the pinned budget (ns) from `telemetry-budget.json`.
fn read_budget(path: &std::path::Path) -> Result<f64, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e} (freeze one with RPAS_WRITE_BUDGET=1)", path.display()))?;
    let json = rpas_obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match &json {
        rpas_obs::Json::Obj(fields) => fields
            .get("noop_counter_ns")
            .and_then(|v| match v {
                rpas_obs::Json::Num(n) => Some(*n),
                _ => None,
            })
            .ok_or_else(|| format!("{}: missing numeric noop_counter_ns", path.display())),
        _ => Err(format!("{}: expected a JSON object", path.display())),
    }
}

fn main() {
    let tel = Telemetry::live();
    let dark = Telemetry::noop();

    // Handles are resolved once and reused on the hot path — exactly how
    // SimSession/ResilientManager hold them.
    let live_counter = tel.counter("bench.ops", &[("tenant", "t0000")]);
    let dark_counter = dark.counter("bench.ops", &[("tenant", "t0000")]);
    let live_hist = tel.histogram("bench.lat", &[], &[0.5, 1.0, 2.0]);
    let dark_hist = dark.histogram("bench.lat", &[], &[0.5, 1.0, 2.0]);

    let mut g = BenchGroup::new("telemetry");
    g.bench("counter_inc_dark", || {
        std::hint::black_box(&dark_counter).inc(1);
    });
    g.bench("counter_inc_live", || {
        std::hint::black_box(&live_counter).inc(1);
    });
    g.bench("hist_record_dark", || {
        std::hint::black_box(&dark_hist).record(0.7);
    });
    g.bench("hist_record_live", || {
        std::hint::black_box(&live_hist).record(0.7);
    });
    g.bench("registry_lookup", || {
        std::hint::black_box(tel.counter("bench.ops", &[("tenant", "t0000")]));
    });
    let rows = g.finish();

    let noop_ns = rows
        .iter()
        .find(|(l, _)| l == "counter_inc_dark")
        .map(|(_, s)| s.median * 1e9)
        .expect("dark counter row");

    let path = workspace_file(BUDGET_FILE);
    if std::env::var("RPAS_WRITE_BUDGET").is_ok() {
        // Freeze with generous headroom: the gate guards against the
        // dark path growing real work (locks, formatting, allocation),
        // not against scheduler noise.
        let budget = (noop_ns * 8.0).max(5.0).ceil();
        let json = format!(
            "{{\n  \"version\": 1,\n  \"noop_counter_ns\": {budget}\n}}\n"
        );
        std::fs::write(&path, json).expect("write budget file");
        println!("[froze noop budget {budget} ns to {}]", path.display());
        bench_obs().flush();
        return;
    }

    match read_budget(&path) {
        Ok(budget) => {
            println!(
                "noop counter: {noop_ns:.2} ns vs budget {budget} ns — {}",
                if noop_ns <= budget { "OK" } else { "OVER BUDGET" }
            );
            if noop_ns > budget {
                bench_obs().emit(catalog::BENCH_TELEMETRY_BUDGET_EXCEEDED, |e| {
                    e.field("noop_ns", noop_ns).field("budget_ns", budget);
                });
                bench_obs().flush();
                std::process::exit(1);
            }
        }
        Err(e) => {
            bench_obs().emit(catalog::BENCH_TELEMETRY_BUDGET_MISSING, |ev| {
                ev.field("error", e);
            });
            bench_obs().flush();
            std::process::exit(1);
        }
    }
    bench_obs().flush();
}
