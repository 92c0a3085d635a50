//! PHY-layer model: transmission rates and frame airtime.
//!
//! The paper transmits Wi-LE beacons at "a physical bitrate of 72 Mbps at
//! transmission power of 0 dBm" (§5.4) — that is HT MCS 7, 20 MHz, short
//! guard interval = 72.2 Mb/s. Airtime feeds directly into the
//! energy-per-packet accounting.

mod airtime;
pub mod channels;
mod rates;

pub use airtime::{ack_airtime_us, frame_airtime_us};
pub use channels::{band_of, centre_freq_mhz, channels_overlap, Band};
pub use rates::{Modulation, PhyRate};
