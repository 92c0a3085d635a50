//! One MAC service layer under Wi-LE, WiFi, and BLE.
//!
//! The paper's core claim is that one WiFi radio can serve both "real
//! WiFi" and BLE-like beaconing roles. This crate gives the three
//! protocols one vocabulary of IEEE-802.15.4-style
//! request/confirm/indication **service primitives**:
//!
//! - [`McpsDataRequest`] / [`McpsDataConfirm`] / [`McpsDataIndication`]
//!   for the data plane, and
//! - `Mlme{Scan,Associate,Wake}{Request,Confirm}` for management
//!   (scan/associate map onto the `wile-netstack` handshake; the wake
//!   primitive models the 802.11ba-style paging/listen companion path).
//!
//! There is one concrete MAC per protocol, and each serves only the
//! primitives its protocol has:
//!
//! - [`WileMac`] — MCPS-DATA and MLME-WAKE: beacon-stuffed injection
//!   through per-device [`Injector`]s plus [`AdaptiveRepeat`]; confirms
//!   carry copies-sent and energy. It has no scan or associate
//!   primitive: §4.1's "Wi-LE does not associate with an AP for
//!   transmission" holds at compile time.
//! - [`WifiMac`] — MCPS-DATA, MLME-SCAN and MLME-ASSOCIATE: the full
//!   association state machine over the probe/auth/WPA2/DHCP exchange.
//! - [`BleMac`] — MCPS-DATA only: advertising trains, one fragment
//!   framed by the same shared helper as Wi-LE, carried as a
//!   manufacturer AD structure on channels 37/38/39.
//!
//! Beside them, [`BeaconFleet`] is the transmit-only Wi-LE fleet of
//! §5.4 precomputed beacons: one shared template, per-device state in
//! parallel vectors, one [`BeaconFleet::wake`] per beacon. It counts
//! each wake as one MCPS-DATA request and confirm but builds no confirm,
//! and it has no receive path, so MLME-WAKE cannot be asked of it.
//!
//! Every caller names its backend; the backends share the primitive
//! types and the [`AirCtx`] they run against, not a trait. Within a
//! backend, every request returns exactly one confirm, and a device's
//! confirm handles are FIFO (property-tested in `tests/sap_contract.rs`).
//!
//! Because every primitive is synchronous against the shared
//! [`Medium`], the layer separates "what the app asked" (per-primitive
//! telemetry counters plus a `mac.request` sim-time span) from "what
//! the air did" (the medium's own instruments).
//!
//! [`Injector`]: wile::inject::Injector
//! [`AdaptiveRepeat`]: wile::reliability::AdaptiveRepeat
//! [`Medium`]: wile_radio::medium::Medium

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod beacon_fleet;
pub mod ble;
pub mod primitives;
pub mod sap;
pub mod wifi;
pub mod wile_backend;

pub use beacon_fleet::BeaconFleet;
pub use ble::BleMac;
pub use primitives::{
    MacProtocol, MacStatus, McpsDataConfirm, McpsDataIndication, McpsDataRequest,
    MlmeAssociateConfirm, MlmeAssociateRequest, MlmeScanConfirm, MlmeScanRequest, MlmeWakeConfirm,
    MlmeWakeRequest,
};
pub use sap::AirCtx;
pub use wifi::WifiMac;
pub use wile_backend::WileMac;
