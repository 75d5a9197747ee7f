//! `lint` — run the rpas-lint static-analysis pass over the workspace.
//!
//! ```text
//! cargo run --bin lint                        # human diagnostics
//! cargo run --bin lint -- --deny-warnings     # CI mode (verify.sh)
//! cargo run --bin lint -- --write-baseline    # re-freeze the P1 budget
//! cargo run --bin lint -- --rules             # rule table
//! ```
//!
//! The P1 budget is always `lint-baseline.json` at the workspace root.
//!
//! Exit codes: 0 clean, 1 violations (or warnings under
//! `--deny-warnings`), 2 usage or I/O error.

use rpas_lint::baseline;
use rpas_lint::config::{rule_summary, Config, RULE_IDS};
use rpas_lint::report::{self, Severity};
use std::path::PathBuf;
use std::process::ExitCode;

/// The committed P1 budget, relative to the workspace root.
const BASELINE_FILE: &str = "lint-baseline.json";

struct Args {
    root: Option<PathBuf>,
    deny_warnings: bool,
    write_baseline: Option<Option<PathBuf>>,
    rules: bool,
    disabled: Vec<String>,
}

const USAGE: &str = "usage: lint [--root DIR] [--deny-warnings] \
[--write-baseline [FILE]] [--disable RULE] [--rules]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        deny_warnings: false,
        write_baseline: None,
        rules: false,
        disabled: Vec::new(),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = Some(it.next().ok_or("--root needs a path")?.into()),
            "--deny-warnings" => args.deny_warnings = true,
            "--write-baseline" => {
                let next = it.peek().filter(|n| !n.starts_with("--")).cloned();
                if next.is_some() {
                    it.next();
                }
                args.write_baseline = Some(next.map(PathBuf::from));
            }
            "--disable" => args.disabled.push(it.next().ok_or("--disable needs a rule id")?),
            "--rules" => args.rules = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            println!("{msg}");
            return ExitCode::from(2);
        }
    };

    if args.rules {
        println!("rpas-lint rules (suppress with `// rpas-lint: allow(RULE, reason = \"...\")`):");
        for r in RULE_IDS {
            println!("  {r:5} {}", rule_summary(r));
        }
        return ExitCode::SUCCESS;
    }

    let mut cfg = Config::default();
    for r in &args.disabled {
        cfg.enabled.remove(r);
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            println!("lint: cannot read current dir: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = args.root.clone().or_else(|| rpas_lint::find_root(&cwd)) else {
        println!("lint: no workspace root found above {} (pass --root)", cwd.display());
        return ExitCode::from(2);
    };

    let mut res = match rpas_lint::run_workspace(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            println!("lint: workspace scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(target) = args.write_baseline {
        let target = target.unwrap_or_else(|| root.join(BASELINE_FILE));
        let json = baseline::to_json(&res.p1);
        if let Err(e) = std::fs::write(&target, &json) {
            println!("lint: cannot write baseline {}: {e}", target.display());
            return ExitCode::from(2);
        }
        println!(
            "lint: froze P1 budget for {} crates ({} panic sites) into {}",
            res.p1.len(),
            res.p1.values().map(|c| c.total()).sum::<u32>(),
            target.display()
        );
        return ExitCode::SUCCESS;
    }

    // Budget check against the committed baseline.
    if cfg.is_enabled("P1") {
        match std::fs::read_to_string(root.join(BASELINE_FILE)) {
            Ok(src) => match baseline::parse(&src) {
                Ok(budget) => res.diagnostics.extend(baseline::compare(
                    &res.p1,
                    &budget,
                    &res.p1_sites,
                    BASELINE_FILE,
                )),
                Err(e) => res.diagnostics.push(report::Diagnostic::error(
                    "P1",
                    BASELINE_FILE,
                    0,
                    format!("unreadable baseline: {e} — regenerate with --write-baseline"),
                )),
            },
            Err(_) => res.diagnostics.push(report::Diagnostic::warning(
                "P1",
                BASELINE_FILE,
                0,
                "no committed baseline found — freeze the current debt with --write-baseline",
            )),
        }
        report::sort(&mut res.diagnostics);
    }

    let errors = res.diagnostics.iter().filter(|d| d.severity == Severity::Error).count();
    let warnings = res.diagnostics.len() - errors;
    print!("{}", report::render_human(&res.diagnostics, res.files_scanned));
    if errors > 0 || (args.deny_warnings && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
