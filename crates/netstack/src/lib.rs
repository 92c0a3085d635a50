//! # wile-netstack — everything a WiFi client pays for that Wi-LE skips
//!
//! §3 of the paper itemizes the cost of *establishing* (probe →
//! authentication → association → WPA2 4-way handshake → DHCP/ARP; "at
//! least 20 MAC-layer frames … In addition, 7 higher-layer frames") and
//! *maintaining* (power-save beacon listening) an 802.11 connection.
//! This crate implements both sides of those exchanges with real frame
//! formats, so the WiFi-DC and WiFi-PS baselines of the evaluation run
//! the same protocol a real client would:
//!
//! * [`ipv4`] — minimal IPv4 + UDP encoding (carries DHCP);
//! * [`arp`] — ARP request/reply;
//! * [`dhcp`] — DISCOVER/OFFER/REQUEST/ACK with real BOOTP layout;
//! * [`wpa`] — WPA2-PSK 4-way handshake over EAPOL-Key frames with
//!   real PBKDF2-derived PSKs and HMAC-SHA1 MICs (`wile-crypto`);
//! * [`ap`] — the access-point responder (Google-WiFi stand-in);
//! * [`sta`] — the client state machine;
//! * [`connect`] — the full association choreography over the simulated
//!   medium, driving the client's power trace (regenerates Fig. 3a);
//! * [`beacon_stuffing`] — the §2 related work (AP-side data-in-beacons),
//!   implemented for a concrete comparison;
//! * [`powersave`] — the 802.11 power-save wake schedule with beacon
//!   skipping (the WiFi-PS scenario's "wakes up only for every third
//!   beacon").

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ap;
pub mod arp;
pub mod beacon_stuffing;
pub mod connect;
pub mod dhcp;
pub mod ipv4;
pub mod powersave;
pub mod sta;
pub mod wpa;
