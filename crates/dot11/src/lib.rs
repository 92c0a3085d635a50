//! # wile-dot11 — IEEE 802.11 wire formats and PHY timing
//!
//! This crate provides the 802.11 substrate for the Wi-LE reproduction
//! (Abedi, Abari, Brecht — *"Wi-LE: Can WiFi Replace Bluetooth?"*,
//! HotNets '19): byte-exact encoders/decoders for the frames the paper's
//! system touches, and a PHY airtime model used to account for transmit
//! energy.
//!
//! ## Layout
//!
//! * [`mac`] — MAC addresses, frame control, MAC headers, sequence control.
//! * [`ie`] — management-frame information elements (SSID incl. the
//!   *hidden SSID* form Wi-LE relies on, supported rates, TIM,
//!   **vendor-specific** — the field that carries Wi-LE payloads).
//! * [`mgmt`] — management frame bodies: beacon, probe request/response,
//!   authentication, (re)association, deauthentication.
//! * [`ctrl`] — control frames: ACK, RTS, CTS, PS-Poll.
//! * [`data`] — data frames with LLC/SNAP encapsulation (DHCP/ARP/EAPOL ride
//!   on these during connection establishment).
//! * [`eapol`] — EAPOL-Key frames for the WPA2 4-way handshake.
//! * [`fcs`] — the frame check sequence (CRC-32).
//! * [`phy`] — transmission rates and per-frame airtime (DSSS, OFDM, HT),
//!   including the 72.2 Mbps MCS7 short-GI rate the paper transmits
//!   Wi-LE beacons at.
//!
//! ## Design
//!
//! Parsing follows the smoltcp idiom: a cheap wrapper type over any
//! `AsRef<[u8]>` buffer with a checked constructor (`new_checked`) and
//! field accessors that read directly from the wire representation. No
//! allocation happens during parsing; builders emit `Vec<u8>`.
//!
//! ```
//! use wile_dot11::mgmt::BeaconBuilder;
//! use wile_dot11::mac::MacAddr;
//!
//! // Build a hidden-SSID beacon with a vendor-specific IE -- the exact
//! // shape of a Wi-LE transmission.
//! let frame = BeaconBuilder::new(MacAddr::new([0x02, 0, 0, 0, 0, 1]))
//!     .hidden_ssid()
//!     .vendor_specific([0xD0, 0x17, 0x1E], 0x01, b"17C")
//!     .build();
//! assert!(frame.len() > 24);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ctrl;
pub mod data;
pub mod eapol;
mod error;
pub mod fcs;
pub mod ie;
pub mod mac;
pub mod mgmt;
pub mod phy;

pub use error::{Error, Result};
pub use mac::MacAddr;

/// Length of the frame check sequence appended to every frame, bytes.
pub(crate) const FCS_LEN: usize = 4;
