//! Fleet telemetry for the rpas workspace.
//!
//! Three deterministic, std-only layers (DESIGN.md §11):
//!
//! 1. `registry` — labelled counters and fixed-bucket histograms in one
//!    sorted map. Fleet workers record through cheap cloneable handles
//!    that never take the map's lock; a [`Snapshot`] is the canonical
//!    sorted text exposition. The [`Telemetry`]
//!    front handle mirrors [`rpas_obs::Obs`]:
//!    the dark (no-op) path is a single branch per recording. A
//!    [`Recorder`] pairs an [`rpas_obs::Obs`] with the counters the
//!    catalogue says its events increment, so one call records both.
//! 2. `slo` — declarative objectives with error budgets and
//!    multi-window burn-rate alerting over **sim ticks** (never wall
//!    clock), emitting `slo/*` audit events through an existing
//!    [`rpas_obs::Obs`] handle.
//! 3. `query` / `diff` — offline tooling over recorded schema-v1
//!    traces: filter/group/aggregate, and structural diff of two runs
//!    (event-count deltas, first-divergence pointer).
//!
//! Determinism contract: nothing in this crate reads a clock, an
//! environment variable, or iterates a hash map. All rendered output is
//! a pure function of what was recorded, so it is byte-identical across
//! reruns and `RPAS_THREADS` settings (counters and per-key histograms
//! are order-independent sums — see DESIGN.md §11).
// Library-code rules P1 / O1 (DESIGN.md §9); an exemption is a per-site `#[expect]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::print_stdout)]
#![cfg_attr(not(test), deny(clippy::float_cmp))] // F1

mod diff;
mod query;
mod registry;
mod slo;

pub use diff::{diff_traces, Divergence, TraceDiff};
pub use query::{run_query, Aggregate, GroupBy, QueryFilter, QueryResult};
pub use registry::{Counter, HistogramHandle, Recorder, Snapshot, Telemetry};
pub use slo::{BurnAlert, BurnRule, RatioSeries, SloReport, SloSpec, SloStatus};
