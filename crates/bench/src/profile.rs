//! Experiment sizing profiles (`RPAS_PROFILE=full|quick`).

/// Which profile is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Paper-scale settings (default).
    Full,
    /// Smoke-test settings.
    Quick,
}

/// Concrete sizes derived from the profile.
#[derive(Debug, Clone)]
pub struct ExperimentProfile {
    /// Which profile these sizes came from.
    pub profile: Profile,
    /// Trace length in days.
    pub trace_days: usize,
    /// Trace generator seed.
    pub trace_seed: u64,
    /// Forecast context length (steps).
    pub context: usize,
    /// Forecast horizon (steps).
    pub horizon: usize,
    /// Independent training runs to average over (paper: 3).
    pub training_runs: usize,
    /// Training epochs for the neural models.
    pub epochs: usize,
    /// Windows per epoch for the neural models.
    pub windows_per_epoch: usize,
    /// Hidden width / `d_model` for the neural models.
    pub hidden: usize,
    /// DeepAR Monte-Carlo sample paths.
    pub deepar_samples: usize,
}

impl ExperimentProfile {
    /// Paper-scale profile: 12-hour context and horizon at 10-minute
    /// sampling (72 steps each), 42-day traces, 3 runs.
    pub fn full() -> Self {
        Self {
            profile: Profile::Full,
            trace_days: 42,
            trace_seed: 20240511,
            context: 72,
            horizon: 72,
            training_runs: 3,
            epochs: 20,
            windows_per_epoch: 96,
            hidden: 32,
            deepar_samples: 100,
        }
    }

    /// Scaled-down smoke-test profile.
    pub fn quick() -> Self {
        Self {
            profile: Profile::Quick,
            trace_days: 10,
            trace_seed: 20240511,
            context: 24,
            horizon: 24,
            training_runs: 1,
            epochs: 4,
            windows_per_epoch: 24,
            hidden: 16,
            deepar_samples: 40,
        }
    }

    /// Resolve from `RPAS_PROFILE` (default `full`).
    ///
    /// # Panics
    /// Panics on an unrecognised value, so typos fail loudly.
    #[expect(clippy::panic, reason = "# Panics contract: a mistyped RPAS_PROFILE must fail loudly")]
    pub fn from_env() -> Self {
        match std::env::var("RPAS_PROFILE").as_deref() {
            Ok("quick") => Self::quick(),
            Ok("full") | Err(_) => Self::full(),
            Ok(other) => panic!("unknown RPAS_PROFILE {other:?}; use 'full' or 'quick'"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_matches_paper_settings() {
        let p = ExperimentProfile::full();
        assert_eq!(p.context, 72);
        assert_eq!(p.horizon, 72);
        assert_eq!(p.training_runs, 3);
    }

    #[test]
    fn quick_is_smaller() {
        let q = ExperimentProfile::quick();
        let f = ExperimentProfile::full();
        assert!(q.trace_days < f.trace_days);
        assert!(q.epochs < f.epochs);
    }
}
