//! `rpas-cli` — drive the whole pipeline from the command line.
//!
//! ```text
//! rpas-cli generate --preset alibaba --days 14 --seed 7 --out trace.csv
//! rpas-cli forecast --trace trace.csv --column alibaba-cpu --model tft \
//!          --context 72 --horizon 72 --out forecast.csv [--save-weights m.rpnn]
//! rpas-cli plan     --forecast forecast.csv --theta 60 --tau 0.9 --out plan.csv
//! rpas-cli simulate --trace trace.csv --column alibaba-cpu --theta 60 \
//!          --policy robust-0.9 [--period 144]
//! ```

use rpas::cli::ParsedArgs;
use rpas::core::{
    quantile_windows, uncertainty_series, AdaptiveConfig, FleetConfig, FleetEngine,
    FleetSupervisor, QuantilePredictivePolicy, ReactiveAvg, ReactiveMax, ReplanSchedule,
    ResilienceConfig, ResilientManager, RobustAutoScalingManager, RollingSpec, ScalingStrategy,
    SupervisorConfig, TenantPolicyKind, TracePreset,
};
use rpas::forecast::{
    Arima, ArimaConfig, DeepAr, DeepArConfig, Forecaster, HoltWinters, HoltWintersConfig,
    MlpProb, MlpProbConfig, SeasonalNaive, Tft, TftConfig, SCALING_LEVELS,
};
use rpas::obs::{catalog, fmt_us, validate_line, Level, Obs, StderrSink, TraceLine};
use rpas::telemetry::{
    diff_traces, run_query, Aggregate, GroupBy, QueryFilter, SloSpec, Telemetry,
};
use rpas::metrics::validate_theta;
use rpas::simdb::{FaultConfig, FaultPlan, SimConfig, SimSession, SimulationReport};
use rpas::traces::csv::{read_column, write_columns_to_path, write_trace};
use rpas::traces::{Trace, STEPS_PER_DAY};

const USAGE: &str = "\
rpas-cli — robust predictive auto-scaling toolbox

USAGE: rpas-cli <command> [--flag value]...

COMMANDS
  generate   synthesize a workload trace
             --preset alibaba|google  --days N (14)  --seed S (7)
             --resource cpu|memory|disk (cpu)  --out FILE
  forecast   train a model on a trace and emit quantile forecasts
             --trace FILE  --column NAME
             --model tft|deepar|mlp|arima|holt-winters|seasonal-naive
             --context N (72)  --horizon N (72)  --train-frac F (0.7)
             --seed S (1)  --out FILE  [--save-weights FILE]
  plan       turn a forecast CSV into a robust capacity plan
             --forecast FILE  --theta T  --tau Q (0.9)  --min-nodes N (1)
             --out FILE
  simulate   run a scaling policy through the cluster simulator
             --trace FILE  --column NAME  --theta T (60)
             --policy reactive-max|reactive-avg|robust-<tau>  --period N (144)
  backtest   rolling-origin backtest with full decision audit
             [--trace FILE --column NAME | --preset alibaba|google (alibaba)]
             --days N  --seed S (7)  --model seasonal-naive|holt-winters
             --theta T (60)  --min-nodes N (1)  --train-frac F (0.7)
             --tau-low Q (0.8)  --tau-high Q (0.95)
             --rho R (default: median uncertainty of the first window)
             --context N  --horizon N  (sized by RPAS_PROFILE;
             holt-winters needs --context of at least 289, two days
             and a step, and takes 289 by default)
             [--faults PROFILE|SPEC  --fault-seed S (101)] — workload
             anomaly bursts injected into the evaluation split
  chaos      fault matrix × policy grid through the cluster simulator
             --preset alibaba|google (alibaba)  --days N (>=4; by profile)
             --seed S (7)  --theta T (60)  --fault-seed S (101)
             --profiles LIST (none;light;heavy): fault specs (a
             profile name, key=val overrides, or both) separated by
             `;`, e.g. 'light;anomaly=0.1,anomaly_max=8,anomaly_mult=3'
             --schedule-out FILE  (fault schedules as JSONL)
  fleet      multi-tenant fleet simulation (per-tenant traces/policies)
             --tenants N (16)  --seed S (7)  --days N (by profile)
             --theta T (60)  --min-nodes N (1)  --tau Q (0.9)
             --context N (144)  --horizon N (72)
             --policies LIST (predictive,resilient,reactive-max; cycled)
             --presets LIST (alibaba,google; cycled)
             --faults none|light|heavy|SPEC (none)
             --worst N (5)  — tenants listed in the regret table
             --trace-out FILE  (deterministic tenant-scoped JSONL —
             unlike other commands, not the live event stream)
             --slo-report [on|off]  — evaluate the violation-rate SLO
             (error budget + multi-window burn-rate alerts) per tenant
             and fleet-wide; deterministic at any RPAS_THREADS
             --metrics-out FILE  — write the metric registry snapshot
             (canonical text exposition) after the run
             Tenants are run under a supervisor: a panicking tenant is
             isolated (siblings unaffected), circuit-broken into
             quarantine after repeated failures, and re-admitted through
             probation with exponential backoff. The fleet-availability
             SLO (quarantine-skipped ticks) is always evaluated.
             --checkpoint-out FILE — write a schema-v3 fleet checkpoint
             (at the kill point, or after the run completes): the
             fleet's config plus a digest of its state
             --kill-at-tick N  — chaos mode: stop after N ticks, write
             the checkpoint, and exit without reports
             --resume-from FILE — rebuild the fleet from a checkpoint,
             replay it to the checkpoint's tick and continue;
             reports/traces/metrics are byte-identical to the
             uninterrupted run. The checkpoint is the whole fleet, so
             the shape flags (--tenants … --slo-report) are refused
  trace-report  summarize a schema-v1 JSONL trace
             --trace FILE
  obs query  filter/group/aggregate a schema-v1 JSONL trace
             --trace FILE  [--span S] [--event E] [--level L]
             [--tenant T] [--where k=v[,k=v...]]
             --group-by all|span|event|level|tenant|field:<name> (event)
             --agg count|sum:<f>|mean:<f>|min:<f>|max:<f> (count)
  obs diff   structural diff of two schema-v1 JSONL traces
             --a FILE  --b FILE  (event-count deltas, first content
             divergence; timing fields are ignored)

ENVIRONMENT
  RPAS_LOG        stderr verbosity: error|warn|info|debug|off (info)
  RPAS_TRACE_OUT  write every event as schema-v1 JSONL to this path
  RPAS_PROFILE    quick|full — sizes backtest defaults (full)

Any command also accepts --trace-out FILE, overriding RPAS_TRACE_OUT.
";

/// A command's body.
type Command = fn(&ParsedArgs, &Obs) -> Result<(), Box<dyn std::error::Error>>;

/// Every command: its name, the flags it reads (as USAGE lists them) and
/// its body. Any command also takes the global `--trace-out`; `run`
/// refuses every other flag before the command starts.
const COMMANDS: [(&str, &[&str], Command); 10] = [
    ("generate", &["preset", "days", "seed", "resource", "out"], |a, _| generate(a)),
    (
        "forecast",
        &[
            "trace", "column", "model", "context", "horizon", "train-frac", "seed", "out",
            "save-weights",
        ],
        forecast,
    ),
    ("plan", &["forecast", "theta", "tau", "min-nodes", "out"], plan),
    ("simulate", &["trace", "column", "theta", "policy", "period"], simulate),
    (
        "backtest",
        &[
            "trace", "column", "preset", "days", "seed", "model", "theta", "min-nodes",
            "train-frac", "tau-low", "tau-high", "rho", "context", "horizon", "faults",
            "fault-seed",
        ],
        backtest,
    ),
    (
        "chaos",
        &["preset", "days", "seed", "theta", "fault-seed", "profiles", "schedule-out"],
        chaos,
    ),
    (
        "fleet",
        &[
            "tenants", "seed", "days", "theta", "min-nodes", "tau", "context", "horizon",
            "policies", "presets", "faults", "worst", "slo-report", "metrics-out",
            "checkpoint-out", "kill-at-tick", "resume-from",
        ],
        fleet,
    ),
    ("trace-report", &["trace"], |a, _| trace_report(a)),
    (
        "obs query",
        &["trace", "span", "event", "level", "tenant", "where", "group-by", "agg"],
        |a, _| obs_query(a),
    ),
    ("obs diff", &["a", "b"], |a, _| obs_diff(a)),
];

/// Pre-parse normalization: fold the two-token `obs query`/`obs diff`
/// spellings into one command, and give bare boolean flags an explicit
/// value (the flag grammar is strictly `--key value`).
fn normalize(mut args: Vec<String>) -> Vec<String> {
    if args.len() >= 2 && args[0] == "obs" && !args[1].starts_with("--") {
        let sub = args.remove(1);
        args[0] = format!("obs {sub}");
    }
    const BOOL_FLAGS: &[&str] = &["--slo-report"];
    let mut out = Vec::with_capacity(args.len() + 1);
    for i in 0..args.len() {
        out.push(args[i].clone());
        if BOOL_FLAGS.contains(&args[i].as_str())
            && args.get(i + 1).is_none_or(|n| n.starts_with("--"))
        {
            out.push("on".to_string());
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "help" {
        print!("{USAGE}");
        return;
    }
    match run(normalize(args)) {
        Ok(()) => {}
        Err(e) => {
            // Through the obs stderr sink, never a raw stderr write (rule
            // O1) — but not through RPAS_LOG: the reason for exit 1
            // is the one diagnostic `off` must not swallow.
            let obs = Obs::with_sink(Box::new(StderrSink::new(Level::Error)));
            obs.emit(catalog::CLI_FATAL, |ev| {
                ev.field("error", e.to_string())
                    .field("hint", "run `rpas-cli help` for usage");
            });
            std::process::exit(1);
        }
    }
}

fn run(args: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    let a = ParsedArgs::parse(args)?;
    let (_, flags, command) = COMMANDS
        .iter()
        .find(|(name, ..)| *name == a.command)
        .ok_or_else(|| format!("unknown command {:?}", a.command))?;
    a.only(&[flags, &["trace-out"][..]].concat())?;
    // Every command shares one observability handle: stderr verbosity from
    // RPAS_LOG, plus a schema-v1 JSONL trace when --trace-out (or
    // RPAS_TRACE_OUT) is set. `fleet` is the exception: its --trace-out is
    // the deterministic tenant-scoped trace written after the run (live
    // sink lines carry wall-clock timestamps and would break the fleet's
    // byte-identity guarantee).
    let obs = if a.command == "fleet" {
        Obs::from_env()
    } else {
        Obs::from_env_with_trace(a.get("trace-out"))
    };
    let result = command(&a, &obs);
    obs.flush();
    result
}

fn load_trace(a: &ParsedArgs) -> Result<(Trace, String), Box<dyn std::error::Error>> {
    let path = a.require("trace")?;
    let column = a.require("column")?.to_string();
    let f = std::fs::File::open(path)?;
    let values = read_column(std::io::BufReader::new(f), &column)?
        .ok_or_else(|| format!("column {column:?} not found in {path}"))?;
    if values.is_empty() {
        return Err(format!("column {column:?} of {path} has no rows").into());
    }
    Ok((Trace::new(column.clone(), 600, values), column))
}

/// A `--preset` / `--presets` entry.
fn parse_preset(name: &str) -> Result<TracePreset, String> {
    TracePreset::parse(name).ok_or_else(|| format!("unknown preset {name:?}"))
}

fn generate(a: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let preset = a.get("preset").unwrap_or("alibaba");
    let days: usize = a.get_or("days", 14)?;
    if days == 0 {
        return Err("--days must be at least 1".into());
    }
    let seed: u64 = a.get_or("seed", 7)?;
    let resource = a.get("resource").unwrap_or("cpu");
    let out = a.require("out")?;

    let cluster = parse_preset(preset)?.cluster(seed, days);
    let kind = match resource {
        "cpu" => rpas::traces::ResourceKind::Cpu,
        "memory" => rpas::traces::ResourceKind::Memory,
        "disk" => rpas::traces::ResourceKind::Disk,
        other => return Err(format!("unknown resource {other:?}").into()),
    };
    let trace = cluster
        .get(kind)
        .ok_or_else(|| format!("preset {preset:?} has no {resource} channel"))?;
    write_trace(out, trace)?;
    println!("wrote {} samples of {} to {out}", trace.len(), trace.name);
    Ok(())
}

fn forecast(a: &ParsedArgs, obs: &Obs) -> Result<(), Box<dyn std::error::Error>> {
    let (trace, _) = load_trace(a)?;
    let model_name = a.require("model")?.to_string();
    let model_name = model_name.as_str();
    let context: usize = a.get_or("context", 72)?;
    let horizon: usize = a.get_or("horizon", 72)?;
    RollingSpec { context, horizon }.validate()?;
    let train_frac: f64 = a.get_or("train-frac", 0.7)?;
    let seed: u64 = a.get_or("seed", 1)?;
    let out = a.require("out")?;

    // The two seasonal models read Holt-Winters' two days and a step of
    // context regardless of --context.
    let ctx_len = if matches!(model_name, "seasonal-naive" | "holt-winters") {
        context.max(holt_winters().min_series())
    } else {
        context
    };
    let (train, test) = trace.train_test_split(train_frac)?;
    if test.len() < ctx_len {
        return Err("test split shorter than the context window".into());
    }

    let mut model: Box<dyn Forecaster> = match model_name {
        "tft" => Box::new(
            Tft::new(TftConfig {
                context,
                horizon,
                quantiles: SCALING_LEVELS.to_vec(),
                seed,
                ..TftConfig::default()
            })
            .with_obs(obs.clone()),
        ),
        "deepar" => Box::new(
            DeepAr::new(DeepArConfig {
                context,
                train_window: context + 3 * horizon,
                seed,
                ..DeepArConfig::default()
            })
            .with_obs(obs.clone()),
        ),
        "mlp" => Box::new(
            MlpProb::new(MlpProbConfig { context, horizon, seed, ..Default::default() })
                .with_obs(obs.clone()),
        ),
        "arima" => Box::new(Arima::new(ArimaConfig::default())),
        "holt-winters" => Box::new(holt_winters()),
        "seasonal-naive" => Box::new(SeasonalNaive::new(STEPS_PER_DAY)),
        other => return Err(format!("unknown model {other:?}").into()),
    };

    obs.emit(catalog::CLI_TRAIN_START, |e| {
        e.field("model", model_name.to_string()).field("samples", train.len());
    });
    model.fit(&train.values)?;
    let ctx = &test.values[test.len() - ctx_len..];
    let qf = model.forecast_quantiles(ctx, horizon, &SCALING_LEVELS)?;

    let mut cols: Vec<(String, Vec<f64>)> = vec![(
        "step".into(),
        (0..horizon).map(|h| h as f64).collect(),
    )];
    for &tau in SCALING_LEVELS.iter() {
        cols.push((format!("q{tau}"), qf.series(tau)));
    }
    let refs: Vec<(&str, &[f64])> = cols.iter().map(|(n, v)| (n.as_str(), v.as_slice())).collect();
    write_columns_to_path(out, &refs)?;
    println!("wrote {horizon}-step quantile forecast to {out}");

    if let Some(wpath) = a.get("save-weights") {
        match model.export_weights() {
            Some(bytes) => {
                std::fs::write(wpath, &bytes)?;
                println!("saved model weights to {wpath}");
            }
            None => obs.emit(catalog::CLI_NO_WEIGHT_SNAPSHOT, |e| {
                e.field("model", model_name.to_string());
            }),
        }
    }
    Ok(())
}

fn plan(a: &ParsedArgs, obs: &Obs) -> Result<(), Box<dyn std::error::Error>> {
    let path = a.require("forecast")?;
    let theta: f64 = a.require_parsed("theta")?;
    validate_theta(theta)?;
    let tau: f64 = a.get_or("tau", 0.9)?;
    let strategy = ScalingStrategy::Fixed { tau };
    strategy.validate()?;
    let min_nodes: u32 = a.get_or("min-nodes", 1)?;
    let out = a.require("out")?;

    // Load the quantile grid columns back.
    let mut levels = Vec::new();
    let mut series: Vec<Vec<f64>> = Vec::new();
    for &l in SCALING_LEVELS.iter() {
        let f = std::fs::File::open(path)?;
        if let Some(col) = read_column(std::io::BufReader::new(f), &format!("q{l}"))? {
            levels.push(l);
            series.push(col);
        }
    }
    if levels.is_empty() {
        return Err("no q<level> columns found in forecast file".into());
    }
    let horizon = series[0].len();
    if let Some((i, col)) = series.iter().enumerate().find(|(_, c)| c.len() != horizon) {
        return Err(format!(
            "forecast column q{} has {} rows but q{} has {horizon}",
            levels[i],
            col.len(),
            levels[0]
        )
        .into());
    }
    let mut values = rpas::tsmath::Matrix::zeros(horizon, levels.len());
    for (i, col) in series.iter().enumerate() {
        for (h, &v) in col.iter().enumerate() {
            values[(h, i)] = v;
        }
    }
    let qf = rpas::forecast::QuantileForecast::new(levels, values)?;
    let manager = RobustAutoScalingManager::new(theta, min_nodes, strategy).with_obs(obs.clone());
    let plan = manager.plan(&qf);

    let steps: Vec<f64> = (0..plan.len()).map(|t| t as f64).collect();
    let nodes: Vec<f64> = plan.as_slice().iter().map(|&c| c as f64).collect();
    write_columns_to_path(out, &[("step", &steps), ("nodes", &nodes)])?;
    println!(
        "wrote {}-step plan (τ={tau}, θ={theta}) to {out}; total node-intervals {}",
        plan.len(),
        plan.total_nodes()
    );
    Ok(())
}

fn simulate(a: &ParsedArgs, obs: &Obs) -> Result<(), Box<dyn std::error::Error>> {
    let (trace, _) = load_trace(a)?;
    let cfg = SimConfig { theta: a.get_or("theta", 60.0)?, ..Default::default() };
    cfg.validate()?;
    let policy_name = a.require("policy")?;
    let period: usize = a.get_or("period", STEPS_PER_DAY)?;
    let schedule = ReplanSchedule { context: period, horizon: period.min(72) };
    schedule.validate().map_err(|why| format!("--period {period}: {why}"))?;

    let session = SimSession::new(&trace, cfg).with_obs(obs.clone());

    let report = if policy_name == "reactive-max" {
        session.run(&mut ReactiveMax::new(6))
    } else if policy_name == "reactive-avg" {
        session.run(&mut ReactiveAvg::paper_default())
    } else if let Some(tau_s) = policy_name.strip_prefix("robust-") {
        let tau: f64 = tau_s.parse().map_err(|_| format!("bad tau in {policy_name:?}"))?;
        let strategy = ScalingStrategy::Fixed { tau };
        strategy.validate().map_err(|why| format!("policy {policy_name:?}: {why}"))?;
        let split = (trace.len() / 2).max(2 * period);
        if trace.len() <= split + period {
            return Err("trace too short for robust simulation (need > 3 periods)".into());
        }
        let mut fc = SeasonalNaive::new(period);
        fc.fit(&trace.values[..split])?;
        let manager =
            RobustAutoScalingManager::new(cfg.theta, 1, strategy).with_obs(obs.clone());
        let mut p = QuantilePredictivePolicy::new("robust", fc, manager, schedule);
        session.run(&mut p)
    } else {
        return Err(format!("unknown policy {policy_name:?}").into());
    };

    println!("policy            : {}", report.policy);
    println!("steps             : {}", report.steps.len());
    println!("under-prov rate   : {:.4}", report.provisioning.under_rate);
    println!("over-prov rate    : {:.4}", report.provisioning.over_rate);
    println!("violation rate    : {:.4}", report.violation_rate);
    println!("avg nodes         : {:.2}", report.provisioning.avg_allocated);
    println!("scale events      : {}", report.scale_out_events + report.scale_in_events);
    println!("checkpoint reads  : {}", report.checkpoint_reads);
    Ok(())
}

/// Holt-Winters with the trace's day as its season, as `forecast` and
/// `backtest` run it; its `min_series` is the shortest context it reads.
fn holt_winters() -> HoltWinters {
    HoltWinters::new(HoltWintersConfig { period: STEPS_PER_DAY, ..Default::default() })
}

/// Profile-sized defaults for `backtest` (full: the paper's 12h/12h
/// windows over 14 days; quick: enough for a few replan windows in under
/// a second). The root crate deliberately has no dependency on
/// `rpas-bench`, so the `RPAS_PROFILE` convention is read directly.
fn profile_defaults() -> (usize, usize, usize) {
    match std::env::var("RPAS_PROFILE").ok().as_deref() {
        Some("quick") => (6, 24, 24),    // (days, context, horizon)
        _ => (14, 72, 72),
    }
}

/// Rolling-origin backtest over a trace with the Algorithm-1 adaptive
/// manager, with the full decision audit flowing to `obs` (use
/// `--trace-out` to capture it as JSONL for `trace-report`).
fn backtest(a: &ParsedArgs, obs: &Obs) -> Result<(), Box<dyn std::error::Error>> {
    let (days_d, context_d, horizon_d) = profile_defaults();
    let trace = if a.get("trace").is_some() {
        load_trace(a)?.0
    } else {
        let preset = a.get("preset").unwrap_or("alibaba");
        let days: usize = a.get_or("days", days_d)?;
        let seed: u64 = a.get_or("seed", 7)?;
        parse_preset(preset)?.build(seed, days)
    };

    let model_name = a.get("model").unwrap_or("seasonal-naive");
    // Holt-Winters reads two seasons and a step of every window, and its
    // season is the trace's day: its default window holds them.
    let hw_context = holt_winters().min_series();
    let context_d = if model_name == "holt-winters" { context_d.max(hw_context) } else { context_d };
    let context: usize = a.get_or("context", context_d)?;
    let horizon: usize = a.get_or("horizon", horizon_d)?;
    let spec = RollingSpec { context, horizon };
    spec.validate()?;
    let theta: f64 = a.get_or("theta", 60.0)?;
    validate_theta(theta)?;
    let min_nodes: u32 = a.get_or("min-nodes", 1)?;
    let train_frac: f64 = a.get_or("train-frac", 0.7)?;
    let rho: Option<f64> = a.get("rho").map(|_| a.require_parsed("rho")).transpose()?;
    // ρ = 0 stands in for the default, which the first window sets after
    // the fit (a median of Eq. 8's non-negative spreads).
    let mut adaptive = AdaptiveConfig {
        tau_low: a.get_or("tau-low", 0.8)?,
        tau_high: a.get_or("tau-high", 0.95)?,
        rho: rho.unwrap_or(0.0),
    };
    ScalingStrategy::Adaptive(adaptive).validate()?;

    // Seasonal-naive's period follows the context window, so one window
    // of history always carries a full season. Holt-Winters' season is the
    // trace's day, so the window must hold its two seasons and a step.
    let mut model: Box<dyn Forecaster> = match model_name {
        "seasonal-naive" => Box::new(SeasonalNaive::new(context)),
        "holt-winters" => {
            if context < hw_context {
                return Err(format!(
                    "holt-winters needs --context of at least {hw_context} \
                     (two {STEPS_PER_DAY}-step days and one step), got {context}"
                )
                .into());
            }
            Box::new(holt_winters())
        }
        other => return Err(format!("unknown backtest model {other:?}").into()),
    };

    let (train, test) = trace.train_test_split(train_frac)?;
    if train.len() < 2 * context {
        return Err("train split shorter than two seasonal periods".into());
    }
    if test.len() < context + horizon {
        return Err("test split shorter than one context+horizon window".into());
    }
    let fit_timer = obs.span(catalog::BACKTEST_SPAN_CLOSE, "fit");
    model.fit(&train.values)?;
    fit_timer.finish(|e| {
        e.field("model", model_name.to_string()).field("samples", train.len());
    });

    // Optional fault injection: the offline backtest has no cluster to
    // take offline, so only the workload-anomaly class applies — bursts
    // multiply the evaluation split the plans are judged against.
    let faulted: Vec<f64>;
    let test_values: &[f64] = match a.get("faults") {
        None => &test.values,
        Some(spec) => {
            let fcfg = FaultConfig::from_spec(spec)?;
            let fault_seed: u64 = a.get_or("fault-seed", 101)?;
            let plan = FaultPlan::build(fcfg, fault_seed, test.len());
            faulted = test
                .values
                .iter()
                .enumerate()
                .map(|(t, &w)| w * plan.anomaly_mult_at(t))
                .collect();
            println!(
                "faults            : {} anomaly-burst steps injected (seed {fault_seed})",
                plan.scheduled().anomaly_steps
            );
            &faulted
        }
    };

    // Default ρ: the median uncertainty of the first forecast window, so
    // the conservative/aggressive split lands mid-scale for the trace at
    // hand instead of needing a hand-tuned absolute threshold.
    if rho.is_none() {
        let first = model.forecast_quantiles(&test_values[..context], horizon, &SCALING_LEVELS)?;
        adaptive.rho = rpas::tsmath::stats::median(&uncertainty_series(&first));
    }
    let AdaptiveConfig { tau_low, tau_high, rho } = adaptive;

    let manager =
        RobustAutoScalingManager::new(theta, min_nodes, ScalingStrategy::Adaptive(adaptive))
            .with_obs(obs.clone());

    let bt_timer = obs.span(catalog::BACKTEST_SPAN_CLOSE, "rolling");
    // Forecast every window, then plan them: the trace carries every
    // `rolling/*` event ahead of the manager's `plan/*` audit.
    let windows = quantile_windows(&*model, test_values, spec, &SCALING_LEVELS, obs);
    let report = rpas::core::backtest(&windows, spec, &manager);
    bt_timer.finish(|e| {
        e.field("windows", report.windows.len());
    });

    println!("model             : {model_name}");
    println!("trace steps       : {} train / {} test", train.len(), test.len());
    println!("strategy          : adaptive tau-low={tau_low} tau-high={tau_high} rho={rho:.3}");
    println!("windows           : {} ({context}-step context, {horizon}-step horizon)", report.windows.len());
    println!("under-prov rate   : {:.4}", report.overall.under_rate);
    println!("over-prov rate    : {:.4}", report.overall.over_rate);
    println!("avg nodes         : {:.2}", report.overall.avg_allocated);
    println!("cost regret       : {} node-steps vs oracle", report.cost_regret_node_steps);
    if let Some(w) = report.worst_window() {
        println!("worst window      : start {} under-rate {:.4}", w.start, w.report.under_rate);
    }
    Ok(())
}

/// Seasonal-naive predictive policy used by the chaos grid: fitted on the
/// first half of the trace, replanning one period at a time at τ = 0.9.
fn chaos_predictive(
    trace: &Trace,
    period: usize,
    theta: f64,
    name: &'static str,
    obs: &Obs,
) -> Result<QuantilePredictivePolicy<SeasonalNaive>, Box<dyn std::error::Error>> {
    let split = trace.len() / 2;
    let mut fc = SeasonalNaive::new(period).with_obs(obs.clone());
    fc.fit(&trace.values[..split])?;
    let manager = RobustAutoScalingManager::new(theta, 1, ScalingStrategy::Fixed { tau: 0.9 })
        .with_obs(obs.clone());
    Ok(QuantilePredictivePolicy::new(
        name,
        fc,
        manager,
        ReplanSchedule { context: period, horizon: period.min(72) },
    ))
}

/// One row of the chaos grid, printed deterministically (no wall times),
/// its profile label padded to the header's `width`.
fn chaos_row(profile: &str, width: usize, policy: &str, r: &SimulationReport) {
    let (episodes, mean, max) = match r.recovery {
        Some(rec) => (rec.episodes.to_string(), format!("{:.2}", rec.mean_steps), rec.max_steps.to_string()),
        None => ("-".into(), "-".into(), "-".into()),
    };
    println!(
        "{profile:<width$} {policy:<13} {:>9.4} {:>9.4} {:>9.2} {:>7} {:>8} {:>9} {:>8}",
        r.violation_rate,
        r.provisioning.under_rate,
        r.provisioning.avg_allocated,
        r.faults.total(),
        episodes,
        mean,
        max,
    );
}

/// Run the fault matrix × policy grid: each fault profile is applied —
/// with an identical schedule — to Reactive-Max, a bare seasonal-naive
/// predictive policy, and the same predictive policy wrapped in
/// [`ResilientManager`]. Same `--seed`/`--fault-seed` → byte-identical
/// stdout and `--schedule-out` artifact.
fn chaos(a: &ParsedArgs, obs: &Obs) -> Result<(), Box<dyn std::error::Error>> {
    let (days_d, _, _) = profile_defaults();
    let preset = a.get("preset").unwrap_or("alibaba");
    let days: usize = a.get_or("days", days_d.max(4))?;
    let seed: u64 = a.get_or("seed", 7)?;
    let sim_cfg = SimConfig { theta: a.get_or("theta", 60.0)?, ..Default::default() };
    sim_cfg.validate()?;
    let fault_seed: u64 = a.get_or("fault-seed", 101)?;
    let profiles_raw = a.get("profiles").unwrap_or("none;light;heavy");

    let trace = parse_preset(preset)?.build(seed, days);
    if trace.len() < 4 * STEPS_PER_DAY {
        return Err("chaos needs at least 4 days of trace (--days 4)".into());
    }
    let period = STEPS_PER_DAY;

    let mut plans: Vec<(&str, FaultPlan)> = Vec::new();
    for spec in profiles_raw.split(';').map(str::trim) {
        let cfg = FaultConfig::from_spec(spec)?;
        plans.push((spec, FaultPlan::build(cfg, fault_seed, trace.len())));
    }
    let width = plans.iter().map(|(spec, _)| spec.chars().count()).fold(8, usize::max);

    println!(
        "chaos grid        : {preset} {days}d × {} profile(s), θ={}, seed {seed}, fault seed {fault_seed}",
        plans.len(),
        sim_cfg.theta
    );
    println!(
        "{:<width$} {:<13} {:>9} {:>9} {:>9} {:>7} {:>8} {:>9} {:>8}",
        "profile", "policy", "viol", "under", "avgnodes", "faults", "episodes", "mean-rec", "max-rec"
    );

    for (name, plan) in &plans {
        // One session per policy run, all under the same fault schedule.
        let session = || {
            let s = SimSession::new(&trace, sim_cfg).with_obs(obs.clone());
            if plan.config().is_none() { s } else { s.with_faults(plan.clone()) }
        };

        chaos_row(name, width, "reactive-max", &session().run(&mut ReactiveMax::new(6)));

        let mut bare = chaos_predictive(&trace, period, sim_cfg.theta, "predictive", obs)?;
        chaos_row(name, width, "predictive", &session().run(&mut bare));

        let primary = chaos_predictive(&trace, period, sim_cfg.theta, "primary", obs)?;
        let rcfg = ResilienceConfig {
            max_nodes: sim_cfg.max_nodes,
            naive_period: period,
            naive_horizon: period.min(72),
            ..Default::default()
        };
        let mut resilient =
            ResilientManager::with_config(primary, rcfg).with_obs(obs.clone());
        chaos_row(name, width, "resilient", &session().run(&mut resilient));
    }

    if let Some(path) = a.get("schedule-out") {
        let mut text = String::new();
        for (name, plan) in &plans {
            text.push_str(&plan.schedule_jsonl(Some(name)));
        }
        std::fs::write(path, &text)?;
        println!("wrote fault schedules to {path}");
    }
    Ok(())
}

/// The `fleet` flags that shape the fleet, all of which a checkpoint's
/// header fixes.
const FLEET_SHAPE_FLAGS: [&str; 12] = [
    "tenants", "seed", "days", "theta", "min-nodes", "tau", "context", "horizon", "policies",
    "presets", "faults", "slo-report",
];

/// Multi-tenant fleet simulation: N tenants, each with its own trace
/// (child-seeded from --seed), forecaster state, and scaling policy,
/// advanced under a [`FleetSupervisor`] over the shared worker pool —
/// panicking tenants are isolated and quarantined instead of taking the
/// process down. Same flags → byte-identical stdout and --trace-out
/// artifact at any `RPAS_THREADS`, including across a
/// --kill-at-tick/--resume-from crash-recovery cycle.
fn fleet(a: &ParsedArgs, obs: &Obs) -> Result<(), Box<dyn std::error::Error>> {
    let metrics_out = a.get("metrics-out");
    let trace_out = a.get("trace-out");
    let checkpoint_out = a.get("checkpoint-out");
    let resume_from = a.get("resume-from");
    let kill_at: Option<u64> = match a.get("kill-at-tick") {
        None => None,
        Some(raw) => Some(raw.parse().map_err(|e| format!("--kill-at-tick: {e}"))?),
    };
    if kill_at.is_some() && checkpoint_out.is_none() {
        return Err("--kill-at-tick requires --checkpoint-out (a crash without a checkpoint loses the run)".into());
    }
    let worst: usize = a.get_or("worst", 5)?;

    // The registry only pays its recording cost when something will read
    // it; otherwise every handle stays on the dark path. A checkpoint's
    // digest covers the registry, so saving and resuming both record
    // into a live one.
    let tel = if metrics_out.is_some() || checkpoint_out.is_some() || resume_from.is_some() {
        Telemetry::live()
    } else {
        Telemetry::noop()
    };

    let (mut sup, cfg) = if let Some(path) = resume_from {
        // Everything about the fleet — tenant mix, seeds, faults, SLO —
        // comes from the checkpoint's header, so a flag that would shape
        // another fleet is an error rather than silently dropped.
        if let Some(flag) = FLEET_SHAPE_FLAGS.iter().find(|flag| a.get(flag).is_some()) {
            return Err(format!(
                "--{flag} cannot be combined with --resume-from: the checkpoint's header fixes the fleet"
            )
            .into());
        }
        let text = std::fs::read_to_string(path)?;
        let (sup, cfg) = rpas::core::checkpoint::load(&text, &tel, obs.clone())
            .map_err(|e| format!("{path}: {e}"))?;
        obs.emit(catalog::FLEET_RESUME, |e| {
            e.field("path", path.to_string()).field("tick", sup.ticks_done());
        });
        (sup, cfg)
    } else {
        let (days_d, _, _) = profile_defaults();
        let tenants: usize = a.get_or("tenants", 16)?;
        let seed: u64 = a.get_or("seed", 7)?;
        let days: usize = a.get_or("days", days_d.max(4))?;
        if days < 2 {
            return Err("--days must be at least 2 (forecasters fit on the first half)".into());
        }
        let policies_raw = a.get("policies").unwrap_or("predictive,resilient,reactive-max");
        let mut policies = Vec::new();
        for name in policies_raw.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            policies.push(
                TenantPolicyKind::parse(name).ok_or_else(|| format!("unknown policy {name:?}"))?,
            );
        }
        let presets_raw = a.get("presets").unwrap_or("alibaba,google");
        let mut presets = Vec::new();
        for name in presets_raw.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            presets.push(parse_preset(name)?);
        }

        let faults_raw = a.get("faults").unwrap_or("none");
        let faults = match faults_raw {
            "none" => None,
            spec => Some(FaultConfig::from_spec(spec)?),
        };

        let slo_report = match a.get("slo-report").unwrap_or("off") {
            "on" | "true" | "1" => true,
            "off" | "false" | "0" => false,
            other => return Err(format!("--slo-report takes on|off, got {other:?}").into()),
        };
        let cfg = FleetConfig {
            tenants,
            seed,
            days,
            theta: a.get_or("theta", 60.0)?,
            min_nodes: a.get_or("min-nodes", 1)?,
            tau: a.get_or("tau", 0.9)?,
            schedule: ReplanSchedule {
                context: a.get_or("context", STEPS_PER_DAY)?,
                horizon: a.get_or("horizon", 72)?,
            },
            policies,
            presets,
            resilience: ResilienceConfig::default(),
            faults,
            // A resumed run captures only if the header says so, so a
            // kill run must record even though it never writes the trace
            // itself.
            capture_events: trace_out.is_some() || checkpoint_out.is_some(),
            slo: slo_report.then(SloSpec::violation_rate_default),
        };
        cfg.validate()?;

        obs.emit(catalog::FLEET_START, |e| {
            e.field("tenants", tenants).field("days", days).field("seed", seed);
        });
        let engine = FleetEngine::with_telemetry(&cfg, &tel).with_obs(obs.clone());
        (FleetSupervisor::wrap_with(engine, SupervisorConfig::default(), &tel), cfg)
    };

    if let Some(kill) = kill_at {
        // Chaos mode: advance to the kill point, persist, and "crash"
        // (exit without reports) — the resumed run must be byte-identical
        // to one that never died.
        while !sup.is_done() && sup.ticks_done() < kill {
            sup.tick();
        }
        let path = checkpoint_out.expect("checked above");
        let text = rpas::core::checkpoint::save(&sup, &cfg, &tel)?;
        std::fs::write(path, &text)?;
        obs.emit(catalog::FLEET_KILLED, |e| {
            e.field("tick", sup.ticks_done()).field("path", path.to_string());
        });
        println!("wrote checkpoint at tick {} to {path}", sup.ticks_done());
        return Ok(());
    }

    sup.run_to_completion();
    if let Some(path) = checkpoint_out {
        let text = rpas::core::checkpoint::save(&sup, &cfg, &tel)?;
        std::fs::write(path, &text)?;
        println!("wrote checkpoint at tick {} to {path}", sup.ticks_done());
    }
    let report = sup.finish();

    let ticks = cfg.days * STEPS_PER_DAY;
    let policies_label =
        cfg.policies.iter().map(|p| p.name()).collect::<Vec<_>>().join(",");
    let presets_label =
        cfg.presets.iter().map(|p| p.name()).collect::<Vec<_>>().join(",");
    println!(
        "fleet             : {} tenant(s) × {ticks} tick(s), θ={}, seed {}",
        cfg.tenants, cfg.theta, cfg.seed
    );
    println!("policy mix        : {policies_label}");
    println!("preset mix        : {presets_label}");
    println!("faults            : {}", cfg.faults.map_or_else(|| "none".to_string(), |f| f.spec()));
    println!("violation rate    : {:.4}", report.qos.violation_rate);
    println!("node steps        : {}", report.qos.node_steps);
    println!("over-prov steps   : {}", report.qos.over_provision_node_steps);
    println!("P95 regret        : {}", report.qos.p95_regret_node_steps);
    println!("max regret        : {}", report.qos.max_regret_node_steps);

    if worst > 0 {
        println!(
            "{:<6} {:<13} {:<8} {:>9} {:>7} {:>7}",
            "tenant", "policy", "preset", "regret", "viol", "faults"
        );
        for i in report.worst_by_regret(worst) {
            let t = &report.tenants[i];
            println!(
                "{:<6} {:<13} {:<8} {:>9} {:>7.4} {:>7}",
                t.id.to_string(),
                t.policy,
                t.preset,
                t.qos.regret_node_steps,
                t.qos.violation_rate,
                t.faults_applied,
            );
        }
    }

    if let Some(av) = &report.availability {
        println!(
            "availability      : {} (bad {} / {} tenant-ticks)",
            if av.fleet.met { "met" } else { "violated" },
            av.fleet.bad,
            av.fleet.total
        );
    }
    if !report.quarantined.is_empty() {
        println!("quarantined       : {} tenant(s)", report.quarantined.len());
        for q in &report.quarantined {
            println!(
                "  {}  strikes {}  until tick {}  reason: {}  last error: {}",
                q.id,
                q.strikes,
                q.until_tick,
                q.reason,
                q.last_error.as_deref().unwrap_or("-"),
            );
        }
    }

    if let Some(slo) = &report.slo {
        println!();
        print!("{}", slo.render());
    }

    if let Some(path) = metrics_out {
        let expo = tel.snapshot().exposition();
        std::fs::write(path, &expo)?;
        println!("wrote {} metric(s) to {path}", expo.lines().count());
    }

    if let Some(path) = trace_out {
        let mut text = String::with_capacity(report.trace_lines.len() * 128);
        for line in &report.trace_lines {
            text.push_str(line);
            text.push('\n');
        }
        std::fs::write(path, &text)?;
        println!("wrote {} tenant-scoped trace events to {path}", report.trace_lines.len());
    }
    Ok(())
}

/// Load and schema-validate a JSONL trace file for the `obs` tooling.
fn load_jsonl(path: &str) -> Result<Vec<TraceLine>, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    let mut lines = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        lines.push(validate_line(raw).map_err(|e| format!("{path}:{}: {e}", i + 1))?);
    }
    Ok(lines)
}

/// `obs query`: filter, group, and aggregate a recorded trace.
fn obs_query(a: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let lines = load_jsonl(a.require("trace")?)?;
    let mut filter = QueryFilter {
        span: a.get("span").map(str::to_string),
        event: a.get("event").map(str::to_string),
        level: match a.get("level") {
            None => None,
            Some(raw) => {
                Some(Level::parse(raw).ok_or_else(|| format!("unknown level {raw:?}"))?)
            }
        },
        field_equals: Vec::new(),
    };
    if let Some(tenant) = a.get("tenant") {
        filter.field_equals.push(("tenant".to_string(), tenant.to_string()));
    }
    if let Some(spec) = a.get("where") {
        for clause in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (k, v) = clause
                .split_once('=')
                .ok_or_else(|| format!("bad --where clause {clause:?} (want k=v)"))?;
            filter.field_equals.push((k.to_string(), v.to_string()));
        }
    }
    filter.check_catalog()?;
    let group = GroupBy::parse(a.get("group-by").unwrap_or("event"))?;
    let agg = Aggregate::parse(a.get("agg").unwrap_or("count"))?;
    print!("{}", run_query(&lines, &filter, &group, &agg).render());
    Ok(())
}

/// `obs diff`: structural diff of two recorded traces. Exits nonzero when
/// the traces diverge, so scripts can assert determinism directly.
fn obs_diff(a: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let ta = load_jsonl(a.require("a")?)?;
    let tb = load_jsonl(a.require("b")?)?;
    let d = diff_traces(&ta, &tb);
    print!("{}", d.render());
    if !d.is_identical() {
        return Err("traces diverge".into());
    }
    Ok(())
}

/// Summarize a schema-v1 JSONL trace: event counts, per-span wall time,
/// and the fault, degradation-ladder and Algorithm-1 decision audits.
/// Every line is schema-validated; a malformed line fails the command.
fn trace_report(a: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let path = a.require("trace")?;
    let lines = load_jsonl(path)?;
    if lines.is_empty() {
        return Err(format!("{path}: no events").into());
    }

    let mut by_level = std::collections::BTreeMap::<&'static str, u64>::new();
    let mut by_event = std::collections::BTreeMap::<(String, String), u64>::new();
    let mut span_wall = std::collections::BTreeMap::<String, (u64, u64)>::new();
    for t in &lines {
        *by_level.entry(t.level.as_str()).or_default() += 1;
        *by_event.entry((t.span.clone(), t.event.clone())).or_default() += 1;
        if let Some(w) = t.wall_us {
            let e = span_wall.entry(t.span.clone()).or_default();
            e.0 += 1;
            e.1 += w;
        }
    }

    println!("trace             : {path}");
    println!("events            : {} (schema v{})", lines.len(), rpas::obs::SCHEMA_VERSION);
    let level_line: Vec<String> = ["error", "warn", "info", "debug"]
        .iter()
        .map(|l| format!("{l} {}", by_level.get(l).copied().unwrap_or(0)))
        .collect();
    println!("by level          : {}", level_line.join(" | "));
    // An old or foreign trace may carry names this build never emits.
    let foreign = by_event.keys().filter(|(s, e)| catalog::find(s, e).is_none()).count();
    println!("not in catalogue  : {foreign} of {} span/event name(s)", by_event.len());

    println!("\nevents by span/event");
    for ((span, event), n) in &by_event {
        println!("  {:<32} {n:>8}", format!("{span}/{event}"));
    }

    if !span_wall.is_empty() {
        println!("\nwall time by span (timed events only)");
        for (span, (n, total)) in &span_wall {
            println!("  {span:<32} {n:>8} × → {}", fmt_us(*total));
        }
    }

    fault_injection_summary(&lines);
    resilience_ladder_summary(&lines);
    decision_audit_summary(&lines);
    Ok(())
}

/// The fault section of `trace-report`: tally applied `fault/*` events and
/// bound the window they landed in, reconstructing the injected schedule.
fn fault_injection_summary(lines: &[TraceLine]) {
    let faults: Vec<&TraceLine> =
        lines.iter().filter(|t| t.span == catalog::FAULT_SPAN).collect();
    if faults.is_empty() {
        return;
    }
    let mut by_kind = std::collections::BTreeMap::<String, u64>::new();
    let mut first = f64::INFINITY;
    let mut last = f64::NEG_INFINITY;
    for t in &faults {
        *by_kind.entry(t.event.clone()).or_default() += 1;
        if let Some(step) = t.num("step") {
            first = first.min(step);
            last = last.max(step);
        }
    }
    println!("\nfault injection");
    println!("  applied faults    : {}", faults.len());
    for (kind, n) in &by_kind {
        println!("  {kind:<18}: {n}");
    }
    if first.is_finite() {
        println!("  first/last step   : {first} / {last}");
    }
}

/// The resilience section of `trace-report`: tally `resilience/*` events
/// and replay the ordered fallback/recover transition sequence.
fn resilience_ladder_summary(lines: &[TraceLine]) {
    let events: Vec<&TraceLine> =
        lines.iter().filter(|t| t.span == catalog::RESILIENCE_SPAN).collect();
    if events.is_empty() {
        return;
    }
    let mut by_kind = std::collections::BTreeMap::<String, u64>::new();
    for t in &events {
        *by_kind.entry(t.event.clone()).or_default() += 1;
    }
    println!("\ndegradation ladder (resilience)");
    for (kind, n) in &by_kind {
        println!("  {kind:<18}: {n}");
    }
    let transitions: Vec<&TraceLine> = events
        .iter()
        .copied()
        .filter(|t| t.is(catalog::RESILIENCE_FALLBACK) || t.is(catalog::RESILIENCE_RECOVER))
        .collect();
    if transitions.is_empty() {
        return;
    }
    println!("  transitions       :");
    const SHOWN: usize = 20;
    for t in transitions.iter().take(SHOWN) {
        let step = t.num("step").unwrap_or(0.0);
        let from = t.str("from").unwrap_or("?");
        let to = t.str("to").unwrap_or("?");
        let arrow = if t.is(catalog::RESILIENCE_FALLBACK) { "↓" } else { "↑" };
        println!("    step {step:>6}: {arrow} {from} → {to}");
    }
    if transitions.len() > SHOWN {
        println!("    … ({} more transitions)", transitions.len() - SHOWN);
    }
}

/// The Algorithm-1 section of `trace-report`: reconstruct the
/// conservative↔aggressive regime sequence from `plan/decision` events
/// and total the `plan/summary` roll-ups.
fn decision_audit_summary(lines: &[TraceLine]) {
    let mut decisions = 0u64;
    let mut conservative = 0u64;
    let mut aggressive = 0u64;
    let mut switches = 0u64;
    let mut prev: Option<(f64, String)> = None; // (step, regime) of the last decision
    for t in lines.iter().filter(|t| t.is(catalog::PLAN_DECISION)) {
        decisions += 1;
        let step = t.num("step").unwrap_or(0.0);
        let Some(regime) = t.str("regime") else { continue };
        match regime {
            "conservative" => conservative += 1,
            _ => aggressive += 1,
        }
        if let Some((pstep, pregime)) = &prev {
            // A step index that did not advance starts a fresh plan; only
            // count switches within one planning pass.
            if step > *pstep && pregime != regime {
                switches += 1;
            }
        }
        prev = Some((step, regime.to_string()));
    }
    if decisions == 0 {
        println!("\ndecision audit    : no plan/decision events");
        return;
    }
    let summaries = lines.iter().filter(|t| t.is(catalog::PLAN_SUMMARY));
    let (mut plans, mut node_steps, mut delta) = (0u64, 0u64, 0u64);
    for t in summaries {
        plans += 1;
        node_steps += t.num("objective_node_steps").unwrap_or(0.0) as u64;
        delta += t.num("plan_delta").unwrap_or(0.0) as u64;
    }
    println!("\ndecision audit (Algorithm 1)");
    println!("  decisions         : {decisions}");
    println!("  conservative      : {conservative} ({aggressive} aggressive)");
    println!("  regime switches   : {switches}");
    println!("  plans             : {plans}");
    println!("  objective         : {node_steps} node-steps");
    println!("  plan delta        : {delta} node-level changes");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_command_reads_exactly_the_flags_usage_lists() {
        let commands = &USAGE[USAGE.find("COMMANDS").unwrap()..USAGE.find("ENVIRONMENT").unwrap()];
        let mut blocks: Vec<(&str, BTreeSet<&str>)> = Vec::new();
        for line in commands.lines().skip(1) {
            let head = line.strip_prefix("  ").filter(|l| !l.starts_with(' '));
            if let Some(name) = head.and_then(|l| COMMANDS.iter().find(|c| l.starts_with(c.0))) {
                blocks.push((name.0, BTreeSet::new()));
            }
            let flags = line.split(|c: char| !(c.is_ascii_lowercase() || c == '-'));
            let (_, listed) = blocks.last_mut().unwrap();
            listed.extend(flags.filter_map(|w| w.strip_prefix("--")).filter(|f| *f != "trace-out"));
        }
        let table: Vec<(&str, BTreeSet<&str>)> = COMMANDS
            .iter()
            .map(|(name, flags, _)| (*name, flags.iter().copied().collect()))
            .collect();
        assert_eq!(blocks, table);
    }
}
