//! Decision-cycle perf ledger — the repository's benchmark.
//!
//! One workload per process:
//!
//! ```text
//! ledger --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! prints, as the last line of stdout, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. An info line
//! before it carries the digest, sample counts and host facts.
//! `--workload all` runs the five in sequence as child processes;
//! `--check` runs each twice, briefly, and compares digests and metrics.
//! See README.md beside this crate for every workload and metric.
// rpas-lint: allow-file(O1, reason = "stdout is the benchmark's product (result and info lines) and stderr its only error channel; no obs handle exists before a workload is set up")

mod checkpoint;
mod clock;
mod config;
mod cycle;
mod fleet;
mod outcome;
mod probes;
mod reference;
mod report;
mod spans;
mod stats;

use config::Workload;
use outcome::{Budget, Outcome, Timing};
use report::Values;
use spans::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: rpas_bench::alloc::CountingAlloc = rpas_bench::alloc::CountingAlloc;

/// Spans a traced run has room for before the vector has to grow.
const SPAN_CAPACITY: usize = 1 << 18;
/// Share of `--seconds` a traced run spends on its own ops; the probes
/// get a fixed slice each on top.
const TRACED_OP_SHARE: f64 = 0.5;
/// One micro-probe's budget, per second of `--seconds`.
const PROBE_NS_PER_SECOND: f64 = 6e6;
/// The span a workload opens around each call into a layer, and the
/// metric its self-time share is reported as.
const LAYER_SPANS: [(&str, &str); 9] = [
    ("window", "op.share.window"),
    ("forecast", "op.share.forecast"),
    ("plan", "op.share.plan"),
    ("simulate", "op.share.simulate"),
    ("score", "op.share.score"),
    ("tick", "op.share.tick"),
    ("finish", "op.share.finish"),
    ("save", "op.share.save"),
    ("load", "op.share.load"),
];
/// Length of the runs `--check` makes.
const CHECK_SECONDS: f64 = 1.5;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: config::DEFAULT_SEED,
        seconds: config::RUN_SECONDS,
        trace: false,
        check: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--check" {
            args.check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", args.seconds));
    }
    if !args.check && args.workload != "all" && Workload::parse(&args.workload).is_none() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        return Err(format!("--workload must be one of {} or all", names.join(", ")));
    }
    Ok(args)
}

/// Where run artefacts go: `$RPAS_RESULTS_DIR`, else `results/bench`
/// under the working directory (the checkout root).
fn results_dir() -> Result<PathBuf, String> {
    let dir = std::env::var_os("RPAS_RESULTS_DIR")
        .map_or_else(|| PathBuf::from("results/bench"), PathBuf::from);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn run_workload(workload: Workload, budget: &Budget, tr: &mut Tracer) -> Result<Outcome, String> {
    match workload {
        Workload::CycleDeepar | Workload::CycleTft => cycle::run(workload, budget, tr),
        Workload::FleetSteady | Workload::FleetObserved => fleet::run(workload, budget, tr),
        Workload::CheckpointRoundtrip => checkpoint::run(budget, tr),
    }
}

/// The five end-to-end metrics of an untraced run.
fn end_to_end(t: &Timing, out: &Outcome) -> Values {
    Values::from([
        ("setup_s", t.setup_s),
        ("op_p50_ms", t.op_p50_ms),
        ("op_tail_ms", t.op_tail_ms),
        ("ops_per_s", t.ops_per_s),
        ("peak_rss_mb", out.peak_rss_mb),
    ])
}

/// The per-layer metrics of a traced run: shares from the workload's own
/// spans, its own forecaster, then the probe suite.
fn per_layer(args: &Args, out: &mut Outcome, tr: &Tracer, dir: &Path) -> Result<Values, String> {
    if out.lat_ms.is_empty() || out.lat_traced_ms.is_empty() {
        return Err("the traced run needs both traced and untraced ops; raise --seconds".into());
    }
    let mut v = Values::new();
    let (by_name, root_ns) = spans::self_times(tr.spans());
    let share = |name: &str| by_name.get(name).map_or(0.0, |t| t.self_ns as f64 / root_ns as f64);
    let mut layers = 0.0;
    for (span, metric) in LAYER_SPANS {
        layers += share(span);
        v.insert(metric, share(span));
    }
    // What the enclosing `op` spans spent outside every layer call.
    v.insert("trace.residual_frac", 1.0 - layers);
    v.insert(
        "trace.overhead_frac",
        stats::median(&out.lat_traced_ms) / stats::median(&out.lat_ms) - 1.0,
    );

    let mut probed = probes::Probed {
        values: &mut v,
        reference: &mut out.reference,
        unit_ns: (args.seconds * PROBE_NS_PER_SECOND) as u64,
    };
    let naive = probes::run(args.seed, dir, &mut probed)?;

    // The workload's own forecaster: the neural one of a cycle workload
    // (predict time from its spans), else the fleets' seasonal-naive.
    let forecast_spans: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "forecast")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    let (layer, predict_us) = match &out.forecast {
        Some(layer) if !forecast_spans.is_empty() => (*layer, stats::median(&forecast_spans)),
        _ => (naive.layer, naive.predict_us),
    };
    // Set-up and the workload's own ops are behind us, the probes too.
    v.insert("host.slowdown", out.reference.overall());
    v.insert("forecast.fit_s", layer.fit_s);
    v.insert("forecast.predict_p50_us", predict_us);
    v.insert("forecast.allocs_per_predict", layer.allocs_per_predict);
    v.insert("forecast.bytes_per_predict", layer.bytes_per_predict);
    Ok(v)
}

/// Run one workload in this process and print its lines.
fn run_one(workload: Workload, args: &Args) -> Result<ExitCode, String> {
    if !rpas_bench::alloc::installed() {
        return Err("the counting allocator is not routing this process's allocations".into());
    }
    std::env::set_var("RPAS_THREADS", config::THREADS.to_string());
    let budget = Budget {
        seed: args.seed,
        seconds: if args.trace { args.seconds * TRACED_OP_SHARE } else { args.seconds },
        traced: args.trace,
        setup_repeats: if args.trace { 1 } else { config::SETUP_REPEATS },
    };
    let mut tr = Tracer::new(if args.trace { SPAN_CAPACITY } else { 0 });
    let mut out = run_workload(workload, &budget, &mut tr)?;

    let mut info: Vec<(&str, String)> = vec![
        ("workload", format!("\"{}\"", workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("digest", format!("\"{:016x}\"", out.digest)),
        ("threads", config::THREADS.to_string()),
        ("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()).to_string()),
        ("tenants", workload.tenants().to_string()),
        ("work_unit", format!("\"{}\"", workload.work_unit())),
        ("tail_percentile", workload.tail_percentile().to_string()),
        ("samples", out.lat_ms.len().to_string()),
        ("traced_samples", out.lat_traced_ms.len().to_string()),
        ("segments", out.segments.len().to_string()),
        ("setups", out.setup.len().to_string()),
        ("spans", tr.spans().len().to_string()),
        ("host_slowdown", out.reference.overall().to_string()),
        ("reference_fastest_ms", out.reference.fastest_ms().to_string()),
    ];
    let (declared, values) = if args.trace {
        let dir = results_dir()?;
        let values = per_layer(args, &mut out, &tr, &dir)?;
        let path = dir.join(format!("ledger-{}.trace.jsonl", workload.name()));
        std::fs::write(&path, tr.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
        (report::PER_LAYER, values)
    } else {
        let t = out.timings(workload.tail_percentile())?;
        // What the same run reads without slowdown compensation, and how
        // the host behaved block by block.
        let Timing { setup_s, op_p50_ms, op_tail_ms, ops_per_s } = t.wall_clock;
        info.push((
            "wall_clock",
            format!("{{\"setup_s\": {setup_s}, \"op_p50_ms\": {op_p50_ms}, \"op_tail_ms\": {op_tail_ms}, \"ops_per_s\": {ops_per_s}}}"),
        ));
        info.push(("block_p50_ms", format!("{:?}", t.block_p50_ms)));
        info.push(("block_slowdown", format!("{:?}", t.block_slowdown)));
        let rule = stats::tail_percentile_for(out.lat_ms.len() / stats::BLOCKS);
        info.push(("tail_rule_percentile", rule.to_string()));
        (report::END_TO_END, end_to_end(&t.compensated, &out))
    };
    let result =
        report::result_line(out.failed == 0, out.attempted, out.failed, declared, &values)?;
    let failures: Vec<String> =
        out.failures.iter().map(|f| format!("\"{}\"", rpas_obs::json::escape_str(f))).collect();
    info.push(("failures", format!("[{}]", failures.join(", "))));
    let info: Vec<String> = info.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{\"info\": {{{}}}}}", info.join(", "));
    if out.determinism_broken {
        // No result line: a run that cannot reproduce itself has no numbers.
        eprintln!("ledger: {}: outputs are not deterministic: {:?}", workload.name(), out.failures);
        return Ok(ExitCode::FAILURE);
    }
    println!("{result}");
    Ok(ExitCode::SUCCESS)
}

/// Run this binary again on one workload; returns its stdout.
fn child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!("{} exited with {}", workload.name(), out.status));
    }
    Ok(stdout)
}

/// `--workload all`: the five in sequence, each in a process of its own
/// (so `peak_rss_mb` is per workload).
fn run_all(args: &Args) -> Result<ExitCode, String> {
    for workload in Workload::ALL {
        print!("{}", child(workload, args.seed, args.seconds, args.trace)?);
    }
    Ok(ExitCode::SUCCESS)
}

/// What `--check` reads out of one child's stdout.
struct ChildRun {
    digest: String,
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

fn parse_child(stdout: &str) -> Result<ChildRun, String> {
    let mut lines = stdout.lines().rev();
    let result = rpas_obs::json::parse(lines.next().ok_or("no result line")?)?;
    let info = rpas_obs::json::parse(lines.next().ok_or("no info line")?)?;
    let digest = info
        .as_obj()
        .and_then(|o| o.get("info")?.as_obj()?.get("digest")?.as_str())
        .ok_or("info line has no digest")?
        .to_string();
    let result = result.as_obj().ok_or("result line is not an object")?;
    let correct = result.get("correct") == Some(&rpas_obs::Json::Bool(true));
    let metrics =
        result.get("metrics").and_then(|m| m.as_obj()).ok_or("result line has no metrics")?;
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.as_obj().and_then(|o| o.get("value")?.as_num());
            value.map(|v| (name.clone(), v)).ok_or_else(|| format!("metric {name} has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildRun { digest, correct, metrics })
}

/// End-to-end bounds and directions from `BENCHMARK.json` in the working
/// directory: `name → (bound, lower is better)`.
fn bounds() -> Result<Vec<(String, f64, bool)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let json = rpas_obs::json::parse(&text)?;
    let list = match json.as_obj().and_then(|o| o.get("end_to_end")) {
        Some(rpas_obs::Json::Arr(items)) => items,
        _ => return Err("BENCHMARK.json has no end_to_end list".into()),
    };
    list.iter()
        .map(|m| {
            let o = m.as_obj()?;
            let lower = o.get("better")?.as_str()? == "lower";
            Some((o.get("name")?.as_str()?.to_string(), o.get("bound")?.as_num()?, lower))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "malformed end_to_end entry in BENCHMARK.json".to_string())
}

/// `--check`: every workload twice at a fraction of the run length; fails
/// unless both runs are correct, their digests match, and the second
/// run's end-to-end metrics are within their bounds of the first's.
fn check(args: &Args) -> Result<ExitCode, String> {
    let bounds = bounds()?;
    let mut ok = true;
    for workload in Workload::ALL {
        let first = parse_child(&child(workload, args.seed, CHECK_SECONDS, false)?)?;
        let second = parse_child(&child(workload, args.seed, CHECK_SECONDS, false)?)?;
        let mut problems = Vec::new();
        if !(first.correct && second.correct) {
            problems.push("a run reported failed ops".to_string());
        }
        if first.digest != second.digest {
            problems.push(format!("digests differ: {} vs {}", first.digest, second.digest));
        }
        for (name, bound, lower) in &bounds {
            let value =
                |run: &ChildRun| run.metrics.get(name).copied().ok_or(format!("{name} missing"));
            let (a, b) = (value(&first)?, value(&second)?);
            let worse = if *lower { b / a - 1.0 } else { a / b - 1.0 };
            if worse > *bound {
                problems.push(format!(
                    "{name}: {a} then {b} ({:+.1} % worse, bound {bound})",
                    worse * 100.0
                ));
            }
        }
        println!(
            "{:<22} digest {}  {}",
            workload.name(),
            first.digest,
            if problems.is_empty() { "ok".into() } else { problems.join("; ") }
        );
        ok &= problems.is_empty();
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&raw).and_then(|args| {
        if args.check {
            check(&args)
        } else if args.workload == "all" {
            run_all(&args)
        } else {
            let workload = Workload::parse(&args.workload).ok_or("unknown workload")?;
            run_one(workload, &args)
        }
    });
    outcome.unwrap_or_else(|why| {
        eprintln!("ledger: {why}");
        ExitCode::FAILURE
    })
}
