//! # rpas-core
//!
//! The Robust Auto-Scaling Manager — phase ② of the paper's framework and
//! its primary contribution.
//!
//! * `plan` — the deterministic auto-scaling optimization of Definition 3
//!   (closed form and through the `rpas-lp` simplex, as the paper's
//!   "standard linear programming solvers").
//! * `uncertainty` — the quantile-spread uncertainty metric `U` (Eq. 8).
//! * `adaptive` — the parameters of Algorithm 1 (uncertainty-aware
//!   adaptive scaling) and of its staircase multi-level extension
//!   (Definition 5).
//! * `reactive` — Reactive-Max and Reactive-Avg baselines (Autopilot-like
//!   moving-window scalers).
//! * `thrash` — §V-A scale smoothing: per-step delta limits + cooldown.
//! * `resilient` — graceful-degradation pipeline: forecast health gates,
//!   a predictive → seasonal-naive → Reactive-Max fallback chain, bounded
//!   retry for failed scale actions and hard guardrails.
//! * `manager` — [`manager::RobustAutoScalingManager`], the one planner:
//!   strategy → `τ_t` → workload bound → plan, for the fixed-`τ` robust
//!   counterpart of Definition 4 / Eq. 6 (allocate against a chosen
//!   quantile forecast instead of a point forecast), Algorithm 1 and the
//!   staircase alike.
//! * `autoscaler` — end-to-end [`rpas_simdb::ScalingPolicy`]
//!   implementations that own a forecaster and replan on a rolling horizon.
//! * `eval` — the rolling-origin evaluation protocol of §IV, in one place:
//!   the window grid ([`RollingSpec`]), the one forecast pass
//!   ([`quantile_windows`]) and its two scorers, forecast quality
//!   ([`evaluate_quantile`], Table I / Fig. 8) and plans ([`backtest`],
//!   Figs. 9–12 and the CLI `backtest`); plus the point-forecast and
//!   reactive protocols, which cannot forecast every window up front.

#![warn(missing_docs)]
// Library-code rules P1 / O1 (DESIGN.md §9); an exemption is a per-site `#[expect]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::print_stdout)]
#![cfg_attr(not(test), deny(clippy::float_cmp))] // F1

mod adaptive;
mod autoscaler;
pub mod checkpoint;
mod eval;
mod fleet;
mod manager;
mod plan;
mod reactive;
mod resilient;
mod supervisor;
mod thrash;
mod uncertainty;

pub use adaptive::{AdaptiveConfig, StaircaseLevel};
pub use autoscaler::{QuantilePredictivePolicy, ReplanSchedule};
pub use eval::{
    backtest, evaluate_plans_point, evaluate_quantile, evaluate_reactive, quantile_windows,
    BacktestReport, BacktestWindow, QuantileEvalReport, RollingSpec,
};
pub use fleet::{
    FleetConfig, FleetEngine, FleetReport, QuarantineRecord, TenantId, TenantPolicyKind,
    TenantSummary, TracePreset,
};
pub use manager::{PlanningBackend, RobustAutoScalingManager, ScalingStrategy};
pub use plan::{plan_point, CapacityPlan};
pub use reactive::{ReactiveAvg, ReactiveMax};
pub use resilient::{ForecastHealthGate, ResilienceConfig, ResilientManager};
pub use supervisor::{FleetSupervisor, SupervisorConfig, TenantHealth};
pub use thrash::{ThrashConfig, ThrashLimited};
pub use uncertainty::{uncertainty_at, uncertainty_series};

/// `Err` with the reason of the first check that does not hold — the
/// shape every config `validate` in this crate shares.
fn first_failure(checks: &[(bool, &str)]) -> Result<(), String> {
    match checks.iter().find(|(ok, _)| !ok) {
        Some((_, why)) => Err(why.to_string()),
        None => Ok(()),
    }
}
