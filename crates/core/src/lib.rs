//! # wile — WiFi Low Energy (Wi-LE)
//!
//! The paper's contribution (Abedi, Abari, Brecht — *"Wi-LE: Can WiFi
//! Replace Bluetooth?"*, HotNets '19): connection-less low-power WiFi
//! uplink for IoT devices. Instead of associating with an access point,
//! a device **injects a fake 802.11 beacon frame** whose
//! *vendor-specific information element* carries the payload; the
//! **hidden-SSID** mechanism keeps the fake AP out of everyone's network
//! lists (§4.1); any nearby WiFi receiver — no monitor mode, no rooting —
//! sees beacons and can hand them to an application (§4).
//!
//! ```
//! use wile::prelude::*;
//! use wile_radio::{Medium, RadioConfig, Instant};
//!
//! // A medium with one sensor and one phone three metres away.
//! let mut medium = Medium::new(Default::default(), 7);
//! let sensor_radio = medium.attach(RadioConfig::default());
//! let phone_radio = medium.attach(RadioConfig { position_m: (3.0, 0.0), ..Default::default() });
//!
//! // The sensor injects one reading.
//! let identity = DeviceIdentity::new(42);
//! let mut injector = Injector::new(identity.clone(), Instant::ZERO);
//! let report = injector.inject(&mut medium, sensor_radio, b"t=21.5C");
//! assert!(report.beacon_len > 0);
//!
//! // The phone's scan path picks it up.
//! let mut gateway = Gateway::new();
//! let got = gateway.poll(&mut medium, phone_radio, Instant::from_secs(1));
//! assert_eq!(got.len(), 1);
//! assert_eq!(got[0].payload, b"t=21.5C");
//! assert_eq!(got[0].device_id, 42);
//! ```
//!
//! ## Module map
//!
//! * [`message`] — the Wi-LE application message header (device id,
//!   sequence number, flags) and its fragmentation rules;
//! * [`encode`] — packing messages into vendor-specific IEs (253-byte
//!   field limit, §4.1) and back;
//! * [`beacon`] — hidden-SSID fake-beacon construction, including the
//!   precomputed-template fast path §5.4 sketches for ASICs;
//! * [`inject`] — the device side: wake → init → inject → deep sleep,
//!   producing the power trace of Fig. 3b;
//! * [`monitor`] — the receiver side: beacon filtering, fragment
//!   reassembly, (device, seq) dedup;
//! * [`payload`] — a delivered message's bytes, shared with the frame
//!   they arrived in;
//! * [`seqset`] — the exact bitmap set of sequence numbers both dedup
//!   layers (gateway and cluster) keep per device;
//! * [`linkhealth`] — gateway-side per-device loss estimation,
//!   replay/reorder tolerance, hysteresis status, stale eviction;
//! * [`registry`] — device identities (§6: "messages … must contain
//!   unique identifiers") and per-device keys;
//! * [`sched`] — periodic transmission with drifting clocks (§6's
//!   collision-decorrelation argument) and the multi-device fleet
//!   simulation;
//! * [`security`] — §6's "encrypting the data prior to its
//!   transmission": ChaCha20-Poly1305 with per-device keys;
//! * [`twoway`] — §6's two-way extension: beacons advertise a short
//!   receive window after themselves;
//! * [`sensor`] — compact binary codecs for typical IoT readings;
//! * [`reliability`] — k-repeat transmission for the unacknowledged
//!   one-way link, the diversity math for choosing k, and the adaptive
//!   policy that retunes k and period under fault pressure inside an
//!   energy budget;
//! * [`planning`] — rate selection against a channel model (generalizes
//!   §5.4's 72.2 Mb/s-at-a-few-metres choice);
//! * [`scanner`] — receiver-side duty cycling and its coupling to the
//!   repeat policy;
//! * [`session`] — the two-way extension run as a full protocol:
//!   windowed downlink commands with implicit uplink-echo confirmation.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod beacon;
pub mod encode;
pub mod inject;
pub mod linkhealth;
pub mod message;
pub mod monitor;
pub mod payload;
pub mod planning;
pub mod registry;
pub mod reliability;
pub mod scanner;
pub mod sched;
pub mod security;
pub mod sensor;
pub mod seqset;
pub mod session;
pub mod twoway;

/// The organizationally-unique identifier Wi-LE vendor IEs carry
/// (locally administered, so it can never collide with a real vendor).
pub(crate) const WILE_OUI: [u8; 3] = [0xD0, 0x17, 0x1E];

/// Vendor IE subtype for Wi-LE data messages.
pub(crate) const VTYPE_DATA: u8 = 0x01;

/// Vendor IE subtype for Wi-LE receive-window announcements (two-way
/// extension, §6).
pub(crate) const VTYPE_RX_WINDOW: u8 = 0x02;

/// Commonly used items.
pub mod prelude {
    pub use crate::inject::{InjectReport, Injector};
    pub use crate::linkhealth::{LinkHealthConfig, LinkStatus};
    pub use crate::message::Message;
    pub use crate::monitor::{Gateway, Received};
    pub use crate::payload::Payload;
    pub use crate::registry::DeviceIdentity;
    pub use crate::reliability::{AdaptiveConfig, AdaptiveRepeat, EnergyBudget, RepeatPolicy};
}
