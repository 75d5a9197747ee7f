//! # rpas-traces
//!
//! Workload-trace substrate: synthetic resource-usage traces with the
//! statistical structure of the Alibaba and Google cluster traces used in
//! the paper's evaluation, plus [`WindowDataset`], the one window type: the
//! training examples of the window models at stride 1, and the rolling
//! evaluation grid at stride = horizon.
//!
//! The real traces are multi-gigabyte downloads; per the reproduction's
//! substitution rule (see `DESIGN.md` §2) we generate seeded synthetic
//! equivalents that preserve the properties the paper's method is sensitive
//! to: strong daily periodicity with weekly modulation, autocorrelated
//! noise, heavy-tailed spikes, and 10-minute aggregation.

#![warn(missing_docs)]
// Library-code rules P1 / O1 (DESIGN.md §9); an exemption is a per-site `#[expect]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::print_stdout)]

mod components;
pub mod csv;
mod dataset;
mod generator;
mod presets;
mod trace;

pub use dataset::WindowDataset;
pub use presets::{alibaba_like, alibaba_like_cpu, google_like, google_like_cpu, ClusterTrace};
pub use trace::{ResourceKind, Trace};

/// Steps per day at the paper's 10-minute aggregation interval.
pub const STEPS_PER_DAY: usize = 144;

/// The paper's aggregation interval, in seconds.
pub(crate) const INTERVAL_SECS: u64 = 600;
