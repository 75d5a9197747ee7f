//! # rpas-obs
//!
//! Zero-dependency structured tracing, metrics, and decision-audit layer
//! for the rpas workspace — the answer to "why did the system pick 7
//! nodes at step 412?" without a debugger.
//!
//! * [`catalog`] — every `span/name` the workspace emits, declared once;
//!   the only names [`Obs::emit`] and [`Obs::span`] take.
//! * `event` — the structured event model: [`Level`], scalar [`Value`]s,
//!   and [`Event`]s with deterministic content (wall-clock only ever
//!   lives in the reserved `ts_us`/`wall_us`/`*_us` timing slots). An
//!   event is one record of words on a tape, built in place by its emit
//!   site — literals interned, a key by its slot in the catalogue entry —
//!   and shown to every sink by reference; one function renders a record
//!   as its line.
//! * `sink` — pluggable sinks behind the cheap [`Obs`] handle: no-op
//!   (a single branch on the hot path; the event-building closure never
//!   runs), human-readable stderr gated by `RPAS_LOG`, schema-v1 JSONL
//!   via `--trace-out` / `RPAS_TRACE_OUT`, and the in-memory sink tests
//!   read events back from; and the capture handle ([`Obs::capture`]), a
//!   fleet tenant's trace, whose records stay where they are built.
//! * `tape` — records of words, strings interned: a capture's, a
//!   handle's scratch one, an event's own; rendered into lines later.
//! * `hist` — fixed-bucket [`Histogram`]s with a flat-string encoding
//!   that fits the JSONL schema.
//! * [`schema`] — the versioned JSONL schema and its validator (used by
//!   `rpas-cli trace-report` and `scripts/verify.sh`).
//! * [`json`] — the minimal in-tree JSON reader/writer backing it all.
//!
//! Instrumented code takes an [`Obs`] parameter (or carries one) and
//! defaults to [`Obs::noop`], so the observability layer is strictly
//! opt-in and free when disabled:
//!
//! ```
//! use rpas_obs::{catalog, MemorySink, Obs};
//!
//! let mem = MemorySink::new();
//! let obs = Obs::with_sink(Box::new(mem.clone()));
//! obs.emit(catalog::PLAN_SUMMARY, |e| {
//!     e.field("horizon", 24u64).field("theta", 60.0);
//! });
//! assert_eq!(mem.events().len(), 1);
//!
//! // The disabled handle never even builds the event:
//! let dark = Obs::noop();
//! dark.emit(catalog::PLAN_SUMMARY, |_| unreachable!("no sink is listening"));
//! ```

#![warn(missing_docs)]
// Library-code rules P1 / O1 (DESIGN.md §9); an exemption is a per-site `#[expect]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::print_stdout)]
#![cfg_attr(test, expect(clippy::disallowed_methods, reason = "E1: this crate tests the string-taking Obs::info / Event::new it defines"))]

pub mod catalog;
mod event;
mod hist;
pub mod json;
pub mod schema;
mod sink;
mod tape;

pub use event::{Event, Level, Value};
pub use hist::Histogram;
pub use json::Json;
pub use schema::{validate_line, TraceLine, SCHEMA_VERSION};
pub use sink::{fmt_us, JsonlSink, MemorySink, Obs, Sink, SpanTimer, StderrSink};
