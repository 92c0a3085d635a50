//! # wile-radio — deterministic discrete-event wireless medium
//!
//! The substitute for the paper's physical testbed air interface: a
//! single-threaded, fully deterministic simulator in the spirit of
//! smoltcp (event-driven, no async runtime, explicit state).
//!
//! * [`time`] — virtual [`time::Instant`]/[`time::Duration`] in integer
//!   nanoseconds; nothing in the workspace reads the wall clock.
//! * [`event`] — a stable event scheduler for multi-device scenarios
//!   (the §6 "network of IoT devices" study): run lanes + one fallback
//!   heap, with the original binary heap retained as the differential
//!   reference.
//! * [`channel`] — log-distance path loss, noise floor, SNR.
//! * [`per`] — SNR → packet error rate per modulation family.
//! * [`clock`] — per-device oscillators with ppm drift and white jitter;
//!   the paper's §6 argument that same-period transmitters "automatically
//!   differ away from each other due to the jitter of their clocks" is
//!   exercised through these.
//! * [`medium`] — the broadcast medium: transmissions, propagation,
//!   collisions with capture, per-receiver delivery; indexed per channel
//!   with memoized link budgets and optional bounded-memory retirement.
//! * [`naive`] — the original unoptimized medium, retained as the
//!   reference implementation for differential property tests.
//! * [`fault`] — smoltcp-style fault injection (random drop, single-bit
//!   or burst corruption).
//! * [`gilbert`] — Gilbert–Elliott two-state bursty loss channel.
//! * [`plan`] — time-scheduled fault plans (interferers, jammers,
//!   gateway outages, clock-skew steps) for robustness campaigns.
//! * [`pcap`] — dump everything the medium carried to a libpcap file
//!   (LINKTYPE_IEEE802_11) for inspection in Wireshark.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod channel;
pub mod clock;
pub mod event;
pub mod fault;
pub mod gilbert;
pub mod medium;
pub mod naive;
pub mod pcap;
pub mod per;
pub mod plan;
pub mod stats;
pub mod time;

pub use channel::ChannelModel;
pub use clock::DriftClock;
pub use event::{EventQueue, NaiveEventQueue};
pub use fault::{CorruptionMode, FaultInjector, FaultOutcome};
pub use gilbert::{ChannelState, GilbertElliott};
pub use medium::{Medium, RadioConfig, RadioId, RxFrame};
pub use naive::NaiveMedium;
pub use plan::{Disturbance, FaultPhase, FaultPlan, FaultTimeline};
pub use stats::MediumStats;
pub use time::{Duration, Instant};
