//! The paper's evaluation (§IV: Tables I–III, Figs. 5–12) and the two
//! ablations, one function per experiment. Each returns a typed result
//! that renders the tables and CSVs the `experiments` bin prints and
//! checks its own shape claims ([`Report::shapes`]): the bin prints them,
//! `tests/shapes.rs` asserts them.

mod forecasting;
mod overhead;
mod scaling;

use crate::{ExperimentProfile, Profile};
use rpas_core::{
    backtest, quantile_windows, uncertainty_series, RobustAutoScalingManager, RollingSpec,
    ScalingStrategy,
};
use rpas_forecast::{Forecaster, QuantileForecast};
use rpas_metrics::ProvisioningReport;
use rpas_obs::Obs;

/// Runs one experiment at a profile, to its report.
pub type Runner = fn(&ExperimentProfile) -> Box<dyn Report>;

/// Every experiment, in run order, by the name the `experiments` bin takes.
pub const EXPERIMENTS: [(&str, Runner); 12] = [
    ("table1", |p| Box::new(forecasting::table1(p))),
    ("fig5", |_| Box::new(scaling::fig5())),
    ("fig6", |p| Box::new(forecasting::fig6(p))),
    ("fig7", |p| Box::new(forecasting::fig7(p))),
    ("fig8", |p| Box::new(forecasting::fig8(p))),
    ("fig9", |p| Box::new(scaling::fig9(p))),
    ("fig10", |p| Box::new(scaling::fig10(p))),
    ("fig11", |p| Box::new(scaling::fig11(p))),
    ("fig12", |p| Box::new(scaling::fig12(p))),
    ("ablation_grid", |p| Box::new(forecasting::ablation_grid(p))),
    ("ablation_staircase", |p| Box::new(scaling::ablation_staircase(p))),
    ("table2_3", |p| Box::new(overhead::table2_3(p))),
];

/// A finished experiment.
pub trait Report {
    /// Print its tables and write its CSVs.
    fn render(&self);
    /// Its shape claims, checked on this result.
    fn shapes(&self) -> Vec<Shape>;
}

/// The profiles a shape claim is expected to hold at, as measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// `quick` and `full`.
    Both,
    /// `quick` only: `full` measures otherwise.
    Quick,
    /// `full` only: `quick` measures otherwise.
    Full,
}

/// One shape claim, checked on one run.
#[derive(Debug, Clone)]
pub struct Shape {
    /// What is claimed, with the numbers measured for it.
    pub claim: String,
    /// Whether it holds on this run.
    pub holds: bool,
    /// Where it is expected to hold.
    pub scope: Scope,
}

impl Shape {
    fn new(scope: Scope, holds: bool, claim: String) -> Self {
        Self { claim, holds, scope }
    }

    /// Whether the claim is expected to hold at `profile`.
    pub fn expected(&self, profile: Profile) -> bool {
        match self.scope {
            Scope::Both => true,
            Scope::Quick => profile == Profile::Quick,
            Scope::Full => profile == Profile::Full,
        }
    }
}

/// Labelled values: per trace, per model, per strategy.
type Named<T> = Vec<(&'static str, T)>;

/// The scaling threshold θ every scaling experiment plans against.
const THETA: f64 = 60.0;

/// A manager at θ with a one-node floor.
fn manager(strategy: ScalingStrategy) -> RobustAutoScalingManager {
    RobustAutoScalingManager::new(THETA, 1, strategy)
}

/// Every rolling decision window of `test`, forecast once (sweeps score
/// many strategies on the same forecasts), paired with its actuals.
fn windows<F: Forecaster + ?Sized>(
    model: &F,
    test: &[f64],
    p: &ExperimentProfile,
    levels: &[f64],
) -> Vec<(QuantileForecast, Vec<f64>)> {
    quantile_windows(model, test, RollingSpec::new(p.context, p.horizon), levels, &Obs::noop())
}

/// The overall provisioning rates of `strategy`'s plans for the forecasts
/// of [`windows`].
fn score(
    windows: &[(QuantileForecast, Vec<f64>)],
    p: &ExperimentProfile,
    strategy: ScalingStrategy,
) -> ProvisioningReport {
    backtest(windows, RollingSpec::new(p.context, p.horizon), &manager(strategy)).overall
}

/// The uncertainty metric `U` (Eq. 8) at every step of every window.
fn uncertainties(windows: &[(QuantileForecast, Vec<f64>)]) -> Vec<f64> {
    windows.iter().flat_map(|(qf, _)| uncertainty_series(qf)).collect()
}

/// `"a vs b"`, at table precision.
fn vs(a: f64, b: f64) -> String {
    format!("{} vs {}", crate::output::f(a), crate::output::f(b))
}

/// The label whose value is smallest (the first on a tie).
fn lowest<'a>(rows: impl IntoIterator<Item = (&'a str, f64)>) -> &'a str {
    rows.into_iter()
        .fold(("", f64::INFINITY), |best, row| if row.1 < best.1 { row } else { best })
        .0
}
