//! Typed MCPS/MLME service primitives.
//!
//! The 802.15.4 service model: the next higher layer issues a
//! `*Request`, the MAC answers with exactly one `*Confirm` (FIFO per
//! device), and a payload heard on the receive side surfaces as an
//! [`McpsDataIndication`]. The data types are protocol-agnostic — the
//! same request drives a Wi-LE beacon injection, a WiFi data frame, or
//! a BLE advertising train, and the confirm reports what the backend
//! actually put on the air (copies, energy, timing).

use wile::inject::InjectReport;
use wile::monitor::Received;
use wile::payload::Payload;
use wile::twoway::RxWindow;
use wile_radio::time::{Duration, Instant};

/// The protocol a data indication arrived over (Wi-LE and BLE
/// indications meet in one stream on the receive side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacProtocol {
    /// A beacon-stuffed Wi-LE injection.
    Wile,
    /// A BLE advertisement on channel 37, 38 or 39.
    Ble,
}

/// Primitive completion status (the 802.15.4 `Status` enumeration,
/// trimmed to what these backends can actually report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacStatus {
    /// The primitive completed.
    Success,
    /// A data request arrived before a successful associate.
    NotAssociated,
    /// The payload does not fit the backend's frame budget (BLE's
    /// 31-byte advertising data minus AD and fragment overhead).
    FrameTooLong,
    /// The exchange ran but did not reach its goal (scan heard nothing,
    /// association fell short of connected).
    Failed,
}

// ---------------------------------------------------------------------
// MCPS-DATA
// ---------------------------------------------------------------------

/// MCPS-DATA.request: send one application payload.
#[derive(Debug, Clone, Copy)]
pub struct McpsDataRequest<'a> {
    /// Device ordinal within the issuing MAC (its SoA index).
    pub device: u32,
    /// Application payload.
    pub payload: &'a [u8],
    /// Announce a receive window after the uplink (Wi-LE §6 two-way).
    pub rx_window: Option<RxWindow>,
    /// Copies to transmit in one request (spaced by the backend's
    /// repeat policy). `1` for a single transmission; repeats that the
    /// caller schedules itself go through [`McpsDataRequest::repeat_of`]
    /// instead.
    pub copies: u8,
    /// Re-transmit an earlier sequence number verbatim instead of
    /// allocating a new one (the campaign's spaced repeat copies).
    pub repeat_of: Option<u16>,
}

impl<'a> McpsDataRequest<'a> {
    /// A plain single-copy uplink for `device`.
    pub fn plain(device: u32, payload: &'a [u8]) -> Self {
        McpsDataRequest {
            device,
            payload,
            rx_window: None,
            copies: 1,
            repeat_of: None,
        }
    }
}

/// MCPS-DATA.confirm: what the air actually saw for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct McpsDataConfirm {
    /// Echo of the request's device ordinal.
    pub device: u32,
    /// Completion status.
    pub status: MacStatus,
    /// Per-device monotonic confirm counter — the FIFO witness the
    /// confirm-contract property tests assert on.
    pub handle: u64,
    /// Sequence number used on the air.
    pub seq: u16,
    /// Physical transmissions this request produced (repeat copies,
    /// BLE's three advertising channels).
    pub copies_sent: u8,
    /// Frame length on air, bytes (first copy).
    pub beacon_len: usize,
    /// Energy attributed to this request, mJ — `None` where the backend
    /// does not attribute it per request.
    pub energy_mj: Option<f64>,
    /// Wake instant (start of the device's active window).
    pub t_wake: Instant,
    /// Transmit-window start.
    pub t_tx_start: Instant,
    /// End of the (last) frame on air.
    pub t_tx_end: Instant,
    /// Instant the device re-entered sleep (or finished the exchange).
    pub t_sleep: Instant,
    /// Absolute receive window this uplink announced, if any.
    pub rx_window: Option<(Instant, Instant)>,
}

impl McpsDataConfirm {
    /// The [`InjectReport`] this confirm carries, for drivers that
    /// summarise runs in injector terms.
    pub fn report(&self) -> InjectReport {
        InjectReport {
            seq: self.seq,
            beacon_len: self.beacon_len,
            t_wake: self.t_wake,
            t_tx_start: self.t_tx_start,
            t_tx_end: self.t_tx_end,
            t_sleep: self.t_sleep,
        }
    }
}

/// MCPS-DATA.indication: one delivered payload, surfaced on the
/// gateway/scanner side.
#[derive(Debug, Clone, PartialEq)]
pub struct McpsDataIndication {
    /// The protocol the frame arrived over.
    pub protocol: MacProtocol,
    /// Claimed device id.
    pub device_id: u32,
    /// Message sequence number.
    pub seq: u16,
    /// Reassembled payload.
    pub payload: Payload,
    /// Was the payload end-to-end encrypted?
    pub encrypted: bool,
    /// Arrival instant.
    pub at: Instant,
    /// Received signal strength, dBm.
    pub rssi_dbm: f64,
}

impl McpsDataIndication {
    /// Lift a gateway [`Received`] into an indication.
    pub fn from_received(protocol: MacProtocol, r: Received) -> Self {
        McpsDataIndication {
            protocol,
            device_id: r.device_id,
            seq: r.seq,
            payload: r.payload,
            encrypted: r.encrypted,
            at: r.at,
            rssi_dbm: r.rssi_dbm,
        }
    }
}

// ---------------------------------------------------------------------
// MLME-SCAN
// ---------------------------------------------------------------------

/// MLME-SCAN.request: probe for infrastructure.
#[derive(Debug, Clone, Copy)]
pub struct MlmeScanRequest {
    /// Device ordinal within the issuing MAC.
    pub device: u32,
}

/// MLME-SCAN.confirm.
#[derive(Debug, Clone, PartialEq)]
pub struct MlmeScanConfirm {
    /// Echo of the request's device ordinal.
    pub device: u32,
    /// Completion status: [`MacStatus::Success`] exactly when a
    /// responder answered the probe, [`MacStatus::Failed`] otherwise.
    pub status: MacStatus,
    /// Frames exchanged during the scan.
    pub frames: u64,
    /// Instant the scan exchange finished on the air.
    pub t_done: Instant,
}

// ---------------------------------------------------------------------
// MLME-ASSOCIATE
// ---------------------------------------------------------------------

/// MLME-ASSOCIATE.request: run the full association handshake.
#[derive(Debug, Clone, Copy)]
pub struct MlmeAssociateRequest {
    /// Device ordinal within the issuing MAC.
    pub device: u32,
}

/// MLME-ASSOCIATE.confirm: the paper's §3.1 exchange, measured.
#[derive(Debug, Clone, PartialEq)]
pub struct MlmeAssociateConfirm {
    /// Echo of the request's device ordinal.
    pub device: u32,
    /// Completion status.
    pub status: MacStatus,
    /// Did the handshake reach connected (through DHCP/ARP)?
    pub connected: bool,
    /// MAC-management frames exchanged ("at least 20 per association").
    pub mac_frames: u64,
    /// Higher-layer frames (DHCP, ARP, data).
    pub higher_layer_frames: u64,
    /// Client-side energy over the active window, mJ.
    pub energy_mj: f64,
    /// Wake instant.
    pub t_wake: Instant,
    /// Instant the sensor reading went out (== `t_wake` on failure).
    pub t_data_sent: Instant,
    /// Instant the client re-entered deep sleep — callers running on a
    /// shared medium must reserve the air through this instant.
    pub t_sleep: Instant,
}

// ---------------------------------------------------------------------
// MLME-WAKE
// ---------------------------------------------------------------------

/// MLME-WAKE.request: open a listen window for downlink (the
/// 802.11ba-style paging companion path; Wi-LE §6 two-way).
#[derive(Debug, Clone, Copy)]
pub struct MlmeWakeRequest {
    /// Device ordinal within the issuing MAC.
    pub device: u32,
    /// Window opens (absolute sim time).
    pub open: Instant,
    /// Window closes (absolute sim time).
    pub close: Instant,
}

/// MLME-WAKE.confirm: what the listen window caught.
#[derive(Debug, Clone, PartialEq)]
pub struct MlmeWakeConfirm {
    /// Echo of the request's device ordinal.
    pub device: u32,
    /// At most one downlink frame captured inside the window.
    pub downlink: Option<Vec<u8>>,
    /// Time spent listening.
    pub listened: Duration,
}
