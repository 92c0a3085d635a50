//! # wile-gatewayd — the ingestion service front-end
//!
//! Everything upstream of this crate is a library run inside one
//! process; this crate is the subsystem that makes the cluster
//! pipeline a *service*: a long-running daemon that accepts byte-exact
//! 802.11 beacon frames over a framed transport, stamps them into
//! cluster lanes, and drives the existing `GatewayIngest → ReportQueue
//! → ClusterAggregator` pipeline — with the same telemetry and the
//! same conservation laws as the in-process scenarios.
//!
//! The architecture is a strict two-layer split:
//!
//! * [`core`] — [`GatewaydCore`], the deterministic heart. Pure, IO-
//!   free, injected time: frames go in with their arrival stamps,
//!   deliveries come out. No sockets, no clocks, no threads.
//! * [`daemon`] — the thin IO shell: transports (TCP, Unix socket,
//!   framed pipe/file), the JSONL run trace, graceful shutdown, and
//!   the [`scrape`] endpoint serving the telemetry registry as a text
//!   scrape.
//!
//! Determinism is the headline feature. A scenario run records its
//! exact per-lane frame stream to a `.wcap` file ([`capture`]); the
//! daemon replays the file — over a socket, a pipe, or directly — and
//! reproduces the in-process cluster run **byte for byte**: same
//! deliveries, same counters, same FNV-1a digest. The differential
//! oracle `tests/gatewayd_diff.rs` holds that identity across seeds.
//!
//! Wire format: length-prefixed records ([`codec`]) carrying a tagged
//! vocabulary ([`wire`]) — header, frame, advance-watermark, shutdown.
//! The [`feeder`] module (and the bundled `wile-feeder` binary) stream
//! a capture into a running daemon at max rate or wall-clock pace.

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod capture;
pub mod codec;
pub mod core;
pub mod daemon;
pub mod feeder;
pub mod scrape;
pub mod signal;
pub mod wire;

pub use crate::core::{GatewaydConfig, GatewaydCore, GatewaydReport, IngestError, PollRecord};
pub use capture::{metro_header, read_capture, replay_capture, ReplayError};
pub use daemon::{Daemon, DaemonOptions, DaemonState};
pub use wire::{LaneFrame, WcapHeader, WireError, WireRecord};
