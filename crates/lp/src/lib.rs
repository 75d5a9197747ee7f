//! # rpas-lp
//!
//! A small linear-programming substrate: problem builder plus a two-phase
//! primal simplex solver.
//!
//! The paper notes that the deterministic auto-scaling problem (Eq. 6) "can
//! be solved using standard linear programming solvers"; this crate is that
//! solver. The robust auto-scaling manager routes its capacity plan through
//! it (and cross-validates against the closed-form solution of the
//! separable problem — see the `planners` Criterion bench for the cost
//! comparison).

#![warn(missing_docs)]
// Library-code rules P1 / O1 (DESIGN.md §9); an exemption is a per-site `#[expect]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::print_stdout)]
#![cfg_attr(not(test), deny(clippy::float_cmp))] // F1

mod problem;
mod simplex;

pub use problem::{LpProblem, Relation};
pub use simplex::{solve, LpError, LpSolution};
