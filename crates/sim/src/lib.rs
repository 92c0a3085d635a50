//! `wile-sim`: a deterministic discrete-event actor kernel for Wi-LE
//! simulations.
//!
//! Before this crate, every scenario driver in the workspace re-encoded
//! the same wake → build-beacon → medium-tx → fault-timeline →
//! gateway-ingest → feedback lifecycle as its own hand-rolled event
//! loop, each with its own ordering guards. The kernel factors that
//! shape out once:
//!
//! * [`Kernel`] owns the shared state — the [`wile_radio::Medium`], one
//!   [`wile_radio::EventQueue`] in monotonic mode, an optional seeded
//!   [`wile_radio::FaultTimeline`], and the telemetry collector whose
//!   run trace is the one record of what actors emit;
//! * [`Actor`]s implement one method, `on_event(now, ev, ctx)`, and
//!   reach the world only through [`Ctx`] — scheduling, transmitting,
//!   fault queries, trace emits, and the air lease;
//! * time is **sparse**: the kernel jumps between wake events, so a
//!   deep-sleep gap costs one queue pop and 10k-device fleets are
//!   tractable ([`fleet`]);
//! * determinism rules (FIFO tie-breaking, monotonic scheduling, seeded
//!   randomness, bounded-medium-by-default) live here instead of in
//!   per-module docs;
//! * the deterministic parallel run [`engine`] (PR 2) lives here too,
//!   so layers below `wile-scenarios` — notably `wile-cluster`'s
//!   sharded aggregation — can fan independent cells across a thread
//!   pool with index-ordered, worker-count-independent merging.
//!
//! The fault campaign, two-way session, ablation sweeps, and the
//! netstack association scenario in `wile-scenarios` all run on this
//! kernel; the golden suites (`tests/golden.rs`, `tests/sap_diff.rs`,
//! `tests/sim_diff.rs`) pin every scenario's full report.
//! Every polled run drains on the one schedule in [`poll`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod engine;
pub mod fleet;
pub mod ingest;
pub mod kernel;
pub mod poll;

pub use fleet::{run_fleet, FleetConfig, FleetReport};
pub use ingest::GatewayIngest;
pub use kernel::{Actor, ActorId, Ctx, Kernel};
pub use poll::PollTrain;
