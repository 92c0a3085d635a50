//! # wile-device — power-state models of the paper's hardware
//!
//! The paper measures current drawn by an ESP32 module (and quotes a TI
//! CC2541 report for BLE). This crate is the simulation substitute: a
//! device is a state machine over [`power::PowerState`]s, each with a
//! calibrated current draw; every transition is timestamped into a
//! [`trace::StateTrace`] that the `wile-instrument` crate later samples
//! exactly like the paper's bench multimeter sampled the real board.
//!
//! * `power` — the power states (deep sleep, light sleep, automatic
//!   light sleep, active CPU, radio TX/RX/listen).
//! * `current` — state → current (mA) mapping.
//! * [`trace`] — timestamped state transitions + phase marks.
//! * `mcu` — the device driver façade scenarios script against.
//! * [`esp32`] — ESP32 calibration (§5.1 of the paper, with citations).
//! * [`battery`] — battery-lifetime estimation (the "button battery for
//!   over a year" claim of §5.4).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod battery;
mod current;
pub mod esp32;
mod mcu;
mod power;
pub mod trace;

pub use current::CurrentModel;
pub use mcu::Mcu;
pub use power::PowerState;
pub use trace::{Span, StateTrace};
