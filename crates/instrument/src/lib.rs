//! # wile-instrument — the simulated bench multimeter
//!
//! The paper measures everything with a Keysight 34465A in series with
//! the 3.3 V supply, "capable of taking 50,000 samples per second"
//! (§5.1, Figure 2). This crate reproduces that measurement path:
//!
//! * [`Multimeter`] — sample a device's state trace into a current
//!   waveform at a configurable rate;
//! * [`energy`] — integrate current exactly from spans into charge and
//!   energy, and the paper's Equation (1);
//! * [`export`] — CSV / gnuplot-style data files and a terminal ASCII
//!   renderer used by the examples to redraw Figure 3;
//! * [`stats`] — RMS, percentiles, duty cycle, crest factor;
//! * [`Waveform`] — piecewise-constant segment waveforms: exact peak and
//!   duty cycle in O(state transitions) memory, with lazy dense
//!   materialization for plotting and export.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod energy;
pub mod export;
mod multimeter;
pub mod stats;
mod waveform;

pub use multimeter::{CurrentTrace, Multimeter};
pub use waveform::Waveform;
