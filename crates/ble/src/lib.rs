//! # wile-ble — Bluetooth Low Energy substrate
//!
//! The paper compares Wi-LE against BLE, using the TI CC2541's published
//! power figures ("we use a CC2541 … as our reference for power
//! consumption", §5.4). This crate provides both halves of that
//! comparison:
//!
//! * a real **BLE 4.x link-layer codec** — advertising PDUs
//!   ([`pdu`]), AD structures ([`ad`]), CRC-24 ([`crc24`]), channel
//!   whitening ([`whitening`]), advertising channels (`channel`) and
//!   1 Mb/s airtime ([`airtime`]) — so the BLE scenario moves actual
//!   frames across the simulated medium, and
//! * a **CC2541-style per-phase energy model** ([`energy`]) calibrated
//!   to the paper's Table 1 (71 µJ per packet, 1.1 µA idle), following
//!   the phase structure of TI application note swra347a that the paper
//!   cites.
//!
//! [`advertiser`] schedules advertising events (interval + 0–10 ms
//! pseudo-random advDelay, as the spec requires).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ad;
pub mod advertiser;
pub mod airtime;
pub mod channel;
pub mod crc24;
pub mod energy;
pub mod pdu;
pub mod whitening;
