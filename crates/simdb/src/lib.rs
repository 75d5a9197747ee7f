//! # rpas-simdb
//!
//! A discrete-time simulator of a storage-disaggregated cloud database —
//! the evaluation substrate standing in for the production cluster behind
//! the paper's §IV-C experiments (see DESIGN.md §2, substitution 5).
//!
//! The architecture mirrors Fig. 4 of the paper: stateless compute nodes
//! scale out over shared (disaggregated) storage, so adding a node only
//! costs rebuilding its in-memory components from a checkpoint — seconds,
//! not minutes (Fig. 5). The simulator models:
//!
//! * a node pool with warm-up delays drawn from a checkpoint-loading model,
//! * per-step utilization accounting against a scaling threshold `θ`,
//! * a pluggable [`ScalingPolicy`] (reactive and predictive policies live
//!   in `rpas-core`),
//! * under-/over-provisioning bookkeeping via `rpas-metrics`,
//! * deterministic seed-driven fault injection ([`FaultPlan`]) — scale
//!   failures, delayed provisioning, node crashes, metric dropouts, and
//!   workload anomaly bursts (DESIGN.md §8).

#![warn(missing_docs)]
// Library-code rules P1 / O1 (DESIGN.md §9); an exemption is a per-site `#[expect]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::print_stdout)]

mod cluster;
mod faults;
mod fleet;
mod node;
mod policy;
mod qos;
mod report;
mod simulator;
mod warmup;

pub use faults::{FaultConfig, FaultCounts, FaultPlan, RecoveryStats};
pub use fleet::{fleet_qos, tenant_qos, FleetQos, TenantQos};
pub use policy::{FixedPolicy, Observation, PolicyHealth, ScaleOutcome, ScalingPolicy};
pub use qos::{slo_report, LatencyModel, SloReport};
pub use report::{SimulationReport, StepRecord};
pub use simulator::{validate_theta, SimConfig, SimSession};
pub use warmup::WarmupModel;
