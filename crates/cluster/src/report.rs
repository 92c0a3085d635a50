//! What flows through the cluster: per-gateway observations in, elected
//! cluster-wide deliveries out.

use wile::monitor::Received;
use wile::payload::Payload;
use wile_radio::time::Instant;

/// One gateway's observation of one Wi-LE message: a
/// [`wile::monitor::Received`] stamped with the hearing gateway and a
/// cluster-wide enqueue ordinal.
///
/// The ordinal is assigned serially at enqueue time (gateways are
/// drained in lane order inside one poll), so it is deterministic for a
/// fixed world and provides the final tie-break wherever two reports
/// compare equal on `(at, rssi, gateway)` — which keeps every
/// aggregation result independent of worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayReport {
    /// Lane index of the gateway that heard the message.
    pub gateway: usize,
    /// Sending device.
    pub device_id: u32,
    /// Message sequence number.
    pub seq: u16,
    /// Arrival time (end of the beacon on air — identical at every
    /// gateway that heard the same transmission, which is what makes
    /// same-instant election groups well defined).
    pub at: Instant,
    /// Received signal strength at this gateway, dBm.
    pub rssi_dbm: f64,
    /// Payload (plaintext, or ciphertext when `encrypted`).
    pub payload: Payload,
    /// Whether the payload is still sealed.
    pub encrypted: bool,
    /// Cluster-wide enqueue ordinal (see type docs).
    pub ordinal: u64,
}

impl GatewayReport {
    /// Wrap a gateway-pipeline delivery as a cluster report.
    pub fn from_received(gateway: usize, ordinal: u64, r: Received) -> Self {
        GatewayReport {
            gateway,
            device_id: r.device_id,
            seq: r.seq,
            at: r.at,
            rssi_dbm: r.rssi_dbm,
            payload: r.payload,
            encrypted: r.encrypted,
            ordinal,
        }
    }
}

/// One message delivered cluster-wide — the single elected winner among
/// every gateway's copy of the same `(device, seq)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterDelivery {
    /// Sending device.
    pub device_id: u32,
    /// Message sequence number.
    pub seq: u16,
    /// Arrival time of the winning copy.
    pub at: Instant,
    /// RSSI of the winning copy, dBm.
    pub rssi_dbm: f64,
    /// Lane index of the gateway whose report won the election.
    pub gateway: usize,
    /// Payload of the winning copy.
    pub payload: Payload,
    /// Whether the payload is still sealed.
    pub encrypted: bool,
    /// True when this delivery moved the device's ownership to a new
    /// gateway (a roaming handoff; the first gateway to adopt a device
    /// does not count).
    pub handoff: bool,
}
