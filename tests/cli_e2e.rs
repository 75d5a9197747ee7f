//! End-to-end tests of the `cli` binary: the full generate → forecast →
//! plan → simulate pipeline through the real executable, plus error-path
//! checks. Uses the binary Cargo built for this package.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cli"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("rpas-cli-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

#[test]
fn full_pipeline_through_binary() {
    let dir = tmpdir("pipeline");
    let trace = dir.join("trace.csv");
    let fc = dir.join("fc.csv");
    let plan = dir.join("plan.csv");

    let out = cli()
        .args(["generate", "--preset", "alibaba", "--days", "10", "--seed", "3"])
        .args(["--out", trace.to_str().expect("utf8 path")])
        .output()
        .expect("run generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("1440 samples"));

    // seasonal-naive keeps the test fast; the heavy models have their own
    // coverage in the forecast crate.
    let out = cli()
        .args(["forecast", "--trace", trace.to_str().expect("utf8"), "--column", "alibaba-cpu"])
        .args(["--model", "seasonal-naive", "--out", fc.to_str().expect("utf8")])
        .output()
        .expect("run forecast");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let fc_text = std::fs::read_to_string(&fc).expect("forecast csv");
    assert!(fc_text.starts_with("step,q0.5,"), "header: {}", &fc_text[..40]);

    let out = cli()
        .args(["plan", "--forecast", fc.to_str().expect("utf8")])
        .args(["--theta", "60", "--tau", "0.9", "--out", plan.to_str().expect("utf8")])
        .output()
        .expect("run plan");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let plan_text = std::fs::read_to_string(&plan).expect("plan csv");
    assert!(plan_text.starts_with("step,nodes"));
    // Every planned node count is a positive integer.
    for line in plan_text.lines().skip(1) {
        let nodes: f64 = line.split(',').nth(1).expect("nodes col").parse().expect("numeric");
        assert!(nodes >= 1.0 && nodes.fract() == 0.0, "bad node count {nodes}");
    }

    let out = cli()
        .args(["simulate", "--trace", trace.to_str().expect("utf8"), "--column", "alibaba-cpu"])
        .args(["--theta", "60", "--policy", "reactive-avg"])
        .output()
        .expect("run simulate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("under-prov rate"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_lists_all_commands() {
    let out = cli().arg("help").output().expect("run help");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["generate", "forecast", "plan", "simulate"] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn bad_inputs_exit_nonzero_with_clean_errors() {
    let dir = tmpdir("errors");
    let trace = dir.join("trace.csv");
    let ok = cli()
        .args(["generate", "--days", "3", "--out", trace.to_str().expect("utf8")])
        .output()
        .expect("generate");
    assert!(ok.status.success());
    // Trace files that used to reach an assert inside the library.
    let hostile = |name: &str, body: &str| {
        let path = dir.join(name);
        std::fs::write(&path, body).expect("write hostile trace");
        path
    };
    let nan = hostile("nan.csv", "step,x\n0,1\n1,NaN\n2,3\n");
    let inf = hostile("inf.csv", "step,x\n0,1\n1,inf\n");
    let header_only = hostile("header_only.csv", "step,x\n");
    // Quantile columns of unequal length, either way round.
    let longer = hostile("longer.csv", "q0.5,q0.9\n100,130\n,80\n");
    let shorter = hostile("shorter.csv", "q0.5,q0.9\n100,130\n50,\n");
    // Finite cells whose spread is not: interpolating at τ=0.85 overflowed.
    let overflow = hostile("overflow.csv", "q0.5,q0.9\n-1e308,1e308\n");
    // A checkpoint as schema v2 headed it.
    let golden = include_str!("fixtures/checkpoint_v3.jsonl");
    let v2 = hostile("v2.ckpt", &golden.replacen("\"version\":3", "\"version\":2", 1));
    let v2 = v2.to_str().expect("utf8");
    let trace_arg = trace.to_str().expect("utf8");
    let plan_of = |forecast| vec!["plan", "--forecast", forecast, "--theta", "60", "--out", "p.csv"];
    let holt_winters = vec!["backtest", "--days", "3", "--context", "24", "--model", "holt-winters"];

    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["unknown-command"], "unknown command"),
        (vec!["generate", "--preset", "azure", "--out", "x.csv"], "unknown preset"),
        (
            vec![
                "forecast",
                "--trace",
                trace.to_str().expect("utf8"),
                "--column",
                "missing",
                "--model",
                "arima",
                "--out",
                "x.csv",
            ],
            "not found",
        ),
        (
            vec![
                "simulate",
                "--trace",
                trace.to_str().expect("utf8"),
                "--column",
                "alibaba-cpu",
                "--policy",
                "robust-2.0",
            ],
            "must be in (0,1)",
        ),
        (
            vec![
                "simulate",
                "--trace",
                trace.to_str().expect("utf8"),
                "--column",
                "alibaba-cpu",
                "--policy",
                "robust-nan",
            ],
            "policy \"robust-nan\": tau must be in (0,1)",
        ),
        (vec!["plan", "--forecast"], "needs a value"),
        (
            vec!["simulate", "--trace", nan.to_str().expect("utf8"), "--column", "x"],
            "bad cell \"NaN\"",
        ),
        (
            vec![
                "forecast",
                "--trace",
                inf.to_str().expect("utf8"),
                "--column",
                "x",
                "--model",
                "seasonal-naive",
                "--out",
                "x.csv",
            ],
            "bad cell \"inf\"",
        ),
        (
            vec!["backtest", "--trace", header_only.to_str().expect("utf8"), "--column", "x"],
            "has no rows",
        ),
        // Every `--faults` / `--profiles` value goes through the one
        // fault-spec parser, which validates what it builds.
        (vec!["fleet", "--faults", "crash=2"], "fault probability crash=2 outside [0, 1]"),
        (
            vec!["chaos", "--days", "4", "--profiles", "light,bogus=1"],
            "unknown fault spec key \"bogus\"",
        ),
        // NaN and ∞ parse as numbers; every `--theta` refuses them, with
        // the text of the one θ rule (`rpas_simdb::validate_theta`).
        (
            vec!["plan", "--forecast", "f.csv", "--theta", "NaN", "--out", "p.csv"],
            "theta must be positive and finite, got NaN",
        ),
        (
            vec![
                "simulate",
                "--trace",
                trace_arg,
                "--column",
                "alibaba-cpu",
                "--theta",
                "NaN",
                "--policy",
                "reactive-max",
            ],
            "theta must be positive and finite, got NaN",
        ),
        (
            vec!["backtest", "--days", "3", "--theta", "inf"],
            "theta must be positive and finite, got inf",
        ),
        (vec!["chaos", "--theta", "NaN"], "theta must be positive and finite, got NaN"),
        // Above the tenants' pool ceiling: was a panic in `SimSession::new`.
        (vec!["fleet", "--min-nodes", "5000"], "min_nodes must not exceed max_nodes"),
        (plan_of(longer.to_str().expect("utf8")), "forecast column q0.9 has 2 rows but q0.5 has 1"),
        (plan_of(shorter.to_str().expect("utf8")), "forecast column q0.9 has 1 rows but q0.5 has 2"),
        (
            [plan_of(overflow.to_str().expect("utf8")), vec!["--tau", "0.85"]].concat(),
            "unhealthy forecast: quantile spread overflows at step 0",
        ),
        // `--rho` reached an assert inside `AdaptiveConfig::new`.
        (
            vec!["backtest", "--days", "3", "--rho", "-1"],
            "uncertainty threshold must be non-negative and finite",
        ),
        (
            vec!["backtest", "--days", "3", "--rho", "NaN"],
            "uncertainty threshold must be non-negative and finite",
        ),
        (
            vec!["backtest", "--days", "3", "--rho", "inf"],
            "uncertainty threshold must be non-negative and finite",
        ),
        (
            vec!["backtest", "--days", "3", "--tau-low", "0.9", "--tau-high", "0.5"],
            "need 0 < τ₁ ≤ τ₂ < 1",
        ),
        // `--profiles` separates whole specs with `;`: a comma continues
        // one spec, so the old comma list is one malformed spec.
        (
            vec!["chaos", "--days", "4", "--profiles", "none,light"],
            "expected key=value, got \"light\"",
        ),
        // Holt-Winters' season was the context window, which no window
        // could hold twice: exit 1 on a short series, or a panic with --rho.
        (
            holt_winters.clone(),
            "holt-winters needs --context of at least 289 (two 144-step days and one step), got 24",
        ),
        (
            [holt_winters, vec!["--rho", "1"]].concat(),
            "holt-winters needs --context of at least 289 (two 144-step days and one step), got 24",
        ),
        // A header-only trace that every reader then refused.
        (vec!["generate", "--days", "0", "--out", "x.csv"], "--days must be at least 1"),
        // A checkpoint is the whole fleet: a shape flag beside it is
        // refused, and one of another schema version says to re-run.
        (
            vec!["fleet", "--resume-from", v2, "--days", "3"],
            "--days cannot be combined with --resume-from",
        ),
        (
            vec!["fleet", "--resume-from", v2],
            "unsupported checkpoint version 2: this build reads version 3 only; re-run the fleet",
        ),
        // A misspelt flag ran the command on the default it meant to set.
        (
            vec!["fleet", "--tenant", "2", "--days", "2", "--worst", "0"],
            "--tenant is not a flag of fleet",
        ),
        (vec!["backtest", "--tau-hi", "0.99"], "--tau-hi is not a flag of backtest"),
        (vec!["obs", "diff", "--a", "x", "--c", "y"], "--c is not a flag of obs diff"),
    ];
    for (args, expect) in cases {
        let out = cli().args(&args).output().expect("run");
        assert_eq!(out.status.code(), Some(1), "args {args:?} did not exit 1");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(expect), "args {args:?}: stderr {err:?} missing {expect:?}");
        // A clean error, never a panic backtrace.
        assert!(!err.contains("panicked"), "args {args:?} panicked: {err}");
    }
    // A bad --worst used to surface only after the run had written its
    // checkpoint and printed its summary.
    let ckpt = dir.join("worst.ckpt");
    let out = cli()
        .args(["fleet", "--tenants", "2", "--days", "2", "--worst", "x"])
        .args(["--checkpoint-out", ckpt.to_str().expect("utf8")])
        .output()
        .expect("run fleet");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--worst \"x\": expected usize"));
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(!ckpt.exists(), "the checkpoint was written before --worst was parsed");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_grid_is_deterministic_and_replayable() {
    let dir = tmpdir("chaos");
    let d1 = dir.join("a");
    let d2 = dir.join("b");
    std::fs::create_dir_all(&d1).expect("mkdir");
    std::fs::create_dir_all(&d2).expect("mkdir");

    // Same seed twice, from different working directories with the same
    // relative --schedule-out: stdout and the schedule artifact must be
    // byte-identical.
    let run = |cwd: &std::path::Path| {
        cli()
            .current_dir(cwd)
            .env("RPAS_LOG", "off")
            .args(["chaos", "--days", "4", "--seed", "7", "--fault-seed", "11"])
            .args(["--profiles", "light", "--schedule-out", "sched.jsonl"])
            .output()
            .expect("run chaos")
    };
    let a = run(&d1);
    let b = run(&d2);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    assert!(b.status.success(), "{}", String::from_utf8_lossy(&b.stderr));
    assert_eq!(a.stdout, b.stdout, "chaos stdout not deterministic");
    let s1 = std::fs::read(d1.join("sched.jsonl")).expect("schedule a");
    let s2 = std::fs::read(d2.join("sched.jsonl")).expect("schedule b");
    assert!(!s1.is_empty());
    assert_eq!(s1, s2, "fault schedule not deterministic");

    // The grid itself covers every policy and prints no panics.
    let text = String::from_utf8_lossy(&a.stdout);
    for needle in ["reactive-max", "predictive", "resilient", "light"] {
        assert!(text.contains(needle), "chaos output missing {needle}: {text}");
    }

    // A different fault seed must change the schedule.
    let c = cli()
        .current_dir(&d1)
        .env("RPAS_LOG", "off")
        .args(["chaos", "--days", "4", "--seed", "7", "--fault-seed", "12"])
        .args(["--profiles", "light", "--schedule-out", "sched2.jsonl"])
        .output()
        .expect("run chaos");
    assert!(c.status.success());
    let s3 = std::fs::read(d1.join("sched2.jsonl")).expect("schedule c");
    assert_ne!(s1, s3, "fault seed ignored");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_profiles_are_full_specs_and_keep_the_header_aligned() {
    // Two specs no single `key=val` entry could spell: an anomaly profile
    // needs three keys and a delay profile two.
    let anomaly = "anomaly=0.1,anomaly_max=8,anomaly_mult=3";
    let delay = "delay=0.3,delay_max=3";
    let out = cli()
        .env("RPAS_LOG", "off")
        .args(["chaos", "--days", "4", "--profiles", &format!("{anomaly};{delay}")])
        .output()
        .expect("run chaos");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().skip(1);
    let policy_column = lines.next().expect("header").find("policy").expect("policy column");
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), 6, "{text}");
    for (row, spec) in rows.iter().zip([anomaly, anomaly, anomaly, delay, delay, delay]) {
        assert!(row.starts_with(&format!("{spec} ")), "{row}");
        // The policy column starts where the header's does.
        let policy = row[spec.len()..].trim_start();
        assert_eq!(row.len() - policy.len(), policy_column, "{text}");
        // The faults column (the sixth) counts what the profile applied.
        let faults: u64 = row.split_whitespace().nth(5).expect("faults").parse().expect("count");
        assert!(faults > 0, "{row}");
    }
}

#[test]
fn chaos_trace_round_trips_through_trace_report() {
    let dir = tmpdir("chaos-report");
    let trace = dir.join("chaos.jsonl");
    let out = cli()
        .env("RPAS_LOG", "off")
        .args(["chaos", "--days", "4", "--profiles", "heavy"])
        .args(["--trace-out", trace.to_str().expect("utf8")])
        .output()
        .expect("run chaos");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let rep = cli()
        .args(["trace-report", "--trace", trace.to_str().expect("utf8")])
        .output()
        .expect("run trace-report");
    assert!(rep.status.success(), "{}", String::from_utf8_lossy(&rep.stderr));
    let text = String::from_utf8_lossy(&rep.stdout);
    // Both new sections reconstruct from the trace alone.
    assert!(text.contains("fault injection"), "{text}");
    assert!(text.contains("degradation ladder"), "{text}");
    for kind in ["anomaly", "metric_dropout", "scale_fail"] {
        assert!(text.contains(kind), "missing fault kind {kind}: {text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `cli fleet <args>` with logging off, at `threads` workers (`None`: the
/// host's default, whatever the caller's environment says).
fn fleet(threads: Option<&str>, args: &[&str]) -> std::process::Output {
    let mut cmd = cli();
    cmd.env("RPAS_LOG", "off").env_remove("RPAS_THREADS");
    if let Some(n) = threads {
        cmd.env("RPAS_THREADS", n);
    }
    cmd.arg("fleet").args(args).output().expect("run fleet")
}

/// `fleet` stdout without the lines that echo an output path.
fn fleet_stdout(out: &std::process::Output, echo: &str) -> String {
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().filter(|l| !l.contains(echo)).map(|l| format!("{l}\n")).collect()
}

#[test]
fn fleet_summary_and_trace_are_independent_of_thread_count() {
    let dir = tmpdir("fleet-threads");
    let run = |threads, trace: &std::path::Path| {
        let trace = trace.to_str().expect("utf8");
        fleet(threads, &["--tenants", "64", "--days", "2", "--trace-out", trace])
    };
    let (t1, t2) = (dir.join("f1.jsonl"), dir.join("f2.jsonl"));
    let one = fleet_stdout(&run(Some("1"), &t1), "tenant-scoped trace events");
    let default = fleet_stdout(&run(None, &t2), "tenant-scoped trace events");
    assert_eq!(one, default, "fleet summary depends on the thread count");
    let trace = std::fs::read_to_string(&t1).expect("trace");
    assert!(trace.contains("\"tenant\":\"t0000\""), "no tenant-scoped events in the trace");
    assert!(trace == std::fs::read_to_string(&t2).expect("trace"), "tenant trace differs");
    std::fs::remove_dir_all(&dir).ok();
}

/// DESIGN.md §12 through the binary: a run killed mid-flight at one
/// thread and resumed from its checkpoint at two is byte-identical to the
/// run that never died — stdout, sanitised trace and metric exposition.
#[test]
fn fleet_killed_and_resumed_through_the_binary_is_byte_identical() {
    let dir = tmpdir("fleet-resume");
    let path = |name: &str| dir.join(name).to_str().expect("utf8").to_string();
    let size = ["--tenants", "16", "--days", "2", "--faults", "heavy", "--slo-report"];
    let (a_trace, a_metrics, ckpt) = (path("a.jsonl"), path("a.m"), path("fleet.ckpt"));
    let (b_trace, b_metrics) = (path("b.jsonl"), path("b.m"));

    let mut args = size.to_vec();
    args.extend(["--trace-out", &a_trace, "--metrics-out", &a_metrics]);
    let whole = fleet(None, &args);
    let mut args = size.to_vec();
    args.extend(["--kill-at-tick", "150", "--checkpoint-out", &ckpt]);
    let killed = fleet(Some("1"), &args);
    assert!(killed.status.success(), "{}", String::from_utf8_lossy(&killed.stderr));
    let resumed = fleet(
        Some("2"),
        &["--resume-from", &ckpt, "--trace-out", &b_trace, "--metrics-out", &b_metrics],
    );

    let whole = fleet_stdout(&whole, "wrote ");
    assert_eq!(whole, fleet_stdout(&resumed, "wrote "), "stdout differs across the crash");
    assert!(whole.contains("\navailability      : "), "no availability SLO in {whole}");
    assert!(whole.contains("\nSLO violation_rate"), "no SLO report in {whole}");
    let exposition = std::fs::read_to_string(&a_metrics).expect("metrics");
    assert!(
        exposition.lines().any(|l| l.starts_with("sim.steps{tenant=\"t0000\"} counter")),
        "no per-tenant counters in {exposition}"
    );
    for (a, b) in [(&a_trace, &b_trace), (&a_metrics, &b_metrics)] {
        assert!(std::fs::read(a).expect("a") == std::fs::read(b).expect("b"), "{a} != {b}");
    }
    // obs diff must self-zero across the crash boundary too.
    let diff =
        cli().args(["obs", "diff", "--a", &a_trace, "--b", &b_trace]).output().expect("obs diff");
    assert!(diff.status.success(), "{}", String::from_utf8_lossy(&diff.stderr));
    let text = String::from_utf8_lossy(&diff.stdout);
    assert!(text.contains("divergence        : none"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn obs_query_violation_counts_agree_with_the_slo_report() {
    let dir = tmpdir("slo-query");
    let trace = dir.join("slo.jsonl").to_str().expect("utf8").to_string();
    let out =
        fleet(Some("1"), &["--tenants", "8", "--days", "2", "--slo-report", "--trace-out", &trace]);
    let report = fleet_stdout(&out, "wrote ");
    let query = cli()
        .args(["obs", "query", "--trace", &trace, "--span", "sim", "--event", "step"])
        .args(["--where", "violation=true", "--group-by", "tenant"])
        .output()
        .expect("obs query");
    assert!(query.status.success(), "{}", String::from_utf8_lossy(&query.stderr));
    let query = String::from_utf8_lossy(&query.stdout);

    // `subject ticks bad ...` rows of the SLO table against `group value`
    // rows of the query; a tenant with no violation has no query row.
    let table = &report[report.find("\nSLO violation_rate").expect("SLO report")..];
    let column = |text: &str, tenant: &str, col: usize| -> Option<u64> {
        let row = text.lines().find(|l| l.split_whitespace().next() == Some(tenant))?;
        row.split_whitespace().nth(col)?.parse().ok()
    };
    for tenant in ["t0000", "t0007"] {
        let bad = column(table, tenant, 2).unwrap_or_else(|| panic!("no {tenant} in {table}"));
        assert_eq!(column(&query, tenant, 1).unwrap_or(0), bad, "{tenant}: {query}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn backtest_trace_round_trips_through_trace_report() {
    let dir = tmpdir("backtest-trace");
    let trace = dir.join("t.jsonl");
    let out = cli()
        .env("RPAS_PROFILE", "quick")
        .env("RPAS_LOG", "warn")
        .args(["backtest", "--trace-out", trace.to_str().expect("utf8")])
        .output()
        .expect("run backtest");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // trace-report schema-validates every line and fails on a violation,
    // so success certifies the whole file against schema v1.
    let rep = cli()
        .args(["trace-report", "--trace", trace.to_str().expect("utf8")])
        .output()
        .expect("run trace-report");
    assert!(rep.status.success(), "{}", String::from_utf8_lossy(&rep.stderr));
    let text = String::from_utf8_lossy(&rep.stdout);
    assert!(text.contains("plan/decision"), "{text}");
    assert!(text.contains("decision audit (Algorithm 1)"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn backtest_accepts_fault_injection() {
    let out = cli()
        .env("RPAS_PROFILE", "quick")
        .env("RPAS_LOG", "off")
        .args(["backtest", "--preset", "alibaba", "--days", "6"])
        .args(["--faults", "heavy", "--fault-seed", "5"])
        .output()
        .expect("run backtest");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("anomaly-burst steps injected"), "{text}");
    assert!(text.contains("under-prov rate"), "{text}");
}

#[test]
fn backtest_runs_holt_winters() {
    // Its season was the context window: exit 1 by default, a panic with
    // --rho. Now a day, with a window that holds two of them by default.
    let sized = ["--days", "8", "--context", "289", "--horizon", "24", "--rho", "1"];
    for args in [&[][..], &sized[..]] {
        let out = cli()
            .env_remove("RPAS_PROFILE")
            .env("RPAS_LOG", "off")
            .args(["backtest", "--model", "holt-winters"])
            .args(args)
            .output()
            .expect("run backtest");
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("289-step context"), "{text}");
        assert!(text.contains("under-prov rate"), "{text}");
    }
}

/// Every other test here runs the binary at `RPAS_LOG` `off`, `warn` or
/// `info`; at `debug` the stderr sink is shown every debug event too, and
/// no command may panic on one. A fleet tenant's debug events go to its
/// capture and the trace file, not to stderr.
#[test]
fn debug_logging_runs_fleet_backtest_and_chaos_clean() {
    let dir = tmpdir("debug");
    let trace = dir.join("fleet.jsonl");
    let trace = trace.to_str().expect("utf8");
    let fleet = ["fleet", "--tenants", "4", "--days", "2", "--faults", "heavy", "--trace-out", trace];
    let runs: [(&[&str], bool); 3] = [
        (&fleet, false),
        (&["backtest", "--model", "seasonal-naive"], true),
        (&["chaos", "--days", "4"], true),
    ];
    for (args, shows_debug) in runs {
        let out = cli()
            .env("RPAS_PROFILE", "quick")
            .env("RPAS_LOG", "debug")
            .args(args)
            .output()
            .expect("run cli");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_eq!(err.contains("\n[debug] "), shows_debug, "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fatal_error_reaches_stderr_even_with_logging_off() {
    // `scripts/verify.sh` runs nearly every step under RPAS_LOG=off; a
    // step that dies must still say why.
    let out = cli()
        .env("RPAS_LOG", "off")
        .args(["fleet", "--tenants", "4", "--days", "1"])
        .output()
        .expect("run fleet");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cli/fatal") && err.contains("--days"), "stderr {err:?}");
}

#[test]
fn trace_consumers_know_the_catalogue() {
    let dir = tmpdir("catalogue");
    let trace = dir.join("t.jsonl");
    let line = |seq: u32, span: &str, event: &str| {
        format!(
            "{{\"v\":1,\"seq\":{seq},\"ts_us\":0,\"level\":\"debug\",\"span\":\"{span}\",\
             \"event\":\"{event}\",\"fields\":{{\"step\":{seq}}}}}\n"
        )
    };
    // Two events this build emits, two names it does not.
    let text = [
        line(0, "sim", "step"),
        line(1, "sim", "step"),
        line(2, "telemetry", "counter"),
        line(3, "elsewhere", "thing"),
    ]
    .concat();
    std::fs::write(&trace, text).expect("write trace");
    let path = trace.to_str().expect("utf8");

    // trace-report counts the foreign names and still succeeds.
    let rep = cli().args(["trace-report", "--trace", path]).output().expect("run trace-report");
    assert!(rep.status.success(), "{}", String::from_utf8_lossy(&rep.stderr));
    let text = String::from_utf8_lossy(&rep.stdout);
    assert!(text.contains("not in catalogue  : 2 of 3 span/event name(s)"), "{text}");

    // obs query: a catalogued pair runs; a pair that is in no build's
    // catalogue is an error naming what the span does have, not an empty
    // result.
    let query = |span: &str, event: &str| {
        cli()
            .args(["obs", "query", "--trace", path, "--span", span, "--event", event])
            .output()
            .expect("run obs query")
    };
    let ok = query("sim", "step");
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));
    assert!(String::from_utf8_lossy(&ok.stdout).contains("matched 2 of 4 line(s)"));
    for (span, event, expect) in [
        ("sim", "stepp", "report, step, zero_workload"),
        ("simm", "step", "unknown span"),
        ("telemetry", "counter", "unknown span"),
    ] {
        let out = query(span, event);
        assert_eq!(out.status.code(), Some(1), "--span {span} --event {event}");
        assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(expect), "--span {span} --event {event}: stderr {err:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
