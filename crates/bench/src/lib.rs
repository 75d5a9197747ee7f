//! # rpas-bench
//!
//! The experiment harness: the paper's experiments as functions returning
//! typed, shape-checked results ([`experiments`], rendered by the
//! `experiments` bin and asserted by `tests/shapes.rs`), their shared
//! model constructors, dataset preparation and table/CSV output.
//!
//! The experiments honour the `RPAS_PROFILE` environment variable:
//!
//! * `full` (default) — paper-scale settings: context 72, horizon 72,
//!   42-day traces, three training runs where the paper averages over
//!   three.
//! * `quick` — scaled-down settings for smoke-testing the harness
//!   (minutes → seconds). Numbers are NOT comparable to the paper.
// Library-code rules P1 / O1 (DESIGN.md §9); an exemption is a per-site `#[expect]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::print_stdout)]

pub mod alloc;
pub mod experiments;
mod models;
mod output;
mod profile;

use output::{write_csv, Table};
pub use profile::{ExperimentProfile, Profile};

use rpas_traces::{alibaba_like, google_like, Trace};

/// Process-wide observability handle for the `experiments` bin, built
/// once from the environment (`RPAS_LOG` stderr verbosity,
/// `RPAS_TRACE_OUT` JSONL trace). Result tables still go to stdout;
/// diagnostics flow through this handle.
pub(crate) fn bench_obs() -> &'static rpas_obs::Obs {
    static OBS: std::sync::OnceLock<rpas_obs::Obs> = std::sync::OnceLock::new();
    OBS.get_or_init(rpas_obs::Obs::from_env)
}

/// One prepared dataset: name + train/test split of the CPU trace.
#[derive(Debug, Clone)]
pub(crate) struct Dataset {
    /// Dataset display name (`alibaba` / `google`).
    pub name: &'static str,
    /// Training series (first 70%).
    pub train: Vec<f64>,
    /// Held-out series (last 30%).
    pub test: Vec<f64>,
}

/// Build both evaluation datasets at the profile's length.
pub(crate) fn datasets(p: &ExperimentProfile) -> Vec<Dataset> {
    let mk = |name: &'static str, trace: &Trace| {
        let (train, test) = trace.train_test_split(0.7);
        Dataset { name, train: train.values, test: test.values }
    };
    vec![
        mk("alibaba", alibaba_like(p.trace_seed, p.trace_days).cpu()),
        mk("google", google_like(p.trace_seed, p.trace_days).cpu()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_split_70_30() {
        let p = ExperimentProfile::quick();
        let ds = datasets(&p);
        assert_eq!(ds.len(), 2);
        for d in &ds {
            let n = p.trace_days * rpas_traces::STEPS_PER_DAY;
            assert_eq!(d.train.len(), (n as f64 * 0.7).floor() as usize);
            assert_eq!(d.train.len() + d.test.len(), n);
        }
    }
}
