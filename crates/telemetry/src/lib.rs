//! # wile-telemetry — deterministic metrics, spans, and run traces
//!
//! The observability layer for the Wi-LE reproduction. The paper's
//! argument is quantitative (µJ per packet, frames on air, delivery
//! under contention), so the simulator needs to explain *why* a run
//! behaved as it did without perturbing *what* it did. Everything in
//! this crate is therefore split along one line:
//!
//! **Deterministic** (snapshot-digestable, byte-identical across
//! `WILE_WORKERS` and across telemetry on/off runs):
//! * `instrument` — [`Counter`], [`Gauge`] (with high-water mark), and
//!   [`Histogram`] over `u64` values with fixed power-of-two bucket
//!   edges and a `u128` sum, so merging per-worker histograms equals
//!   inserting every observation into one.
//! * [`registry`] — `(static name, sorted label set) → instrument`,
//!   backed by a `BTreeMap` for sorted, stable render/JSON/digest.
//! * `span` — nestable enter/exit intervals stamped with *simulated*
//!   time, attributed to an actor or lane.
//! * `trace` — [`RunTrace`], an ordered event stream with a
//!   schema-versioned JSONL export ([`RunTrace::to_jsonl`]).
//! * `report` — [`TelemetryReport`], the sorted text + JSON snapshot
//!   whose FNV-1a digest is the cross-worker identity witness.
//! * `collector` — [`Telemetry`], the per-run owner threaded through
//!   a kernel; disabled collectors cost one branch per call.
//!
//! **Nondeterministic** (wall clock; env-gated via `WILE_PROF=1`;
//! rendered only under a `# nondeterministic` banner, never digested):
//! * `prof` — [`ProfScope`] RAII timers and per-site tallies.
//!
//! [`json`] is the one serialization helper shared by the report, the
//! trace, and `wile-instrument`'s figure artifacts.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod collector;
mod instrument;
pub mod json;
mod prof;
pub mod registry;
mod report;
mod span;
mod trace;

pub use collector::Telemetry;
pub use instrument::{Counter, Gauge, Histogram};
pub use json::Json;
pub use prof::{prof_count, prof_enabled, prof_record, prof_report, ProfScope};
pub use registry::{fnv1a, Instrument, Key, Label, LabelValue, Registry};
pub use report::TelemetryReport;
pub use trace::RunTrace;
