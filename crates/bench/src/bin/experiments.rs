//! The paper's evaluation — Tables I–III, Figs. 5–12 — and the two ablations:
//! `experiments [name…]` runs the named experiments (all of them when none
//! is named), in the order of `rpas_bench::experiments::EXPERIMENTS`, at
//! `RPAS_PROFILE`, prints their tables, writes their CSVs, then prints one
//! `shape:` line per claim (`FAILS` marks one expected at this profile;
//! `tests/shapes.rs` asserts them). Exits 2 on an unknown name.
//!
//! Run: `cargo run --release -p rpas-bench --bin experiments -- fig9 fig10`
//! (`RPAS_PROFILE=quick` for a smoke run.)

use rpas_bench::experiments::{Scope, EXPERIMENTS};
use rpas_bench::ExperimentProfile;
use rpas_obs::{catalog, Level, Obs, StderrSink};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    if let Some(unknown) = args.iter().find(|a| !names.contains(&a.as_str())) {
        // Through the obs stderr sink (rule O1), whatever RPAS_LOG says.
        let obs = Obs::with_sink(Box::new(StderrSink::new(Level::Error)));
        obs.emit(catalog::BENCH_UNKNOWN_EXPERIMENT, |e| {
            e.field("name", unknown.clone()).field("valid", names.join(" "));
        });
        return ExitCode::from(2);
    }

    let p = ExperimentProfile::from_env();
    println!(
        "experiments — profile {:?}, context {}, horizon {}, {} training run(s)",
        p.profile, p.context, p.horizon, p.training_runs
    );
    let mut shapes = Vec::new();
    for (_, run) in
        EXPERIMENTS.iter().filter(|(name, _)| args.is_empty() || args.iter().any(|a| a == name))
    {
        let report = run(&p);
        report.render();
        shapes.extend(report.shapes());
    }

    println!();
    for s in &shapes {
        let verdict = if s.holds {
            "holds"
        } else if s.expected(p.profile) {
            "FAILS"
        } else {
            "fails"
        };
        let scope = match s.scope {
            Scope::Both => String::new(),
            only => format!(" [expected at {} only]", format!("{only:?}").to_lowercase()),
        };
        println!("shape: {verdict}  {}{scope}", s.claim);
    }
    ExitCode::SUCCESS
}
