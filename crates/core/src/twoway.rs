//! The two-way extension (§6).
//!
//! "An IoT device that utilizes Wi-LE can indicate in some beacon
//! frames that it will be ready to receive packets for a short time
//! slot after the current beacon. This way the waiting period will be
//! limited to the time slots specified by the IoT device and therefore
//! the power consumption is reduced significantly."
//!
//! The announcement rides in a second vendor IE (`crate::VTYPE_RX_WINDOW`)
//! carrying the window's offset and length after the beacon's end.

use crate::message::Message;
use crate::registry::DeviceIdentity;
use crate::{VTYPE_RX_WINDOW, WILE_OUI};
use wile_dot11::ie;
use wile_dot11::mac::SeqControl;
use wile_dot11::mgmt::{Beacon, BeaconBuilder};
use wile_radio::time::{Duration, Instant};

/// Magic prefix of the gateway's loss-report downlink frame.
pub(crate) const FEEDBACK_MAGIC: [u8; 4] = *b"WLFB";

/// The gateway's loss-report downlink frame: the payload it transmits
/// into a device's announced receive window so the device's
/// [`crate::reliability::AdaptiveRepeat`] policy can react to measured
/// message loss.
///
/// Wire format (10 bytes): `FEEDBACK_MAGIC`, device id (4 B, BE),
/// loss in permille (2 B, BE). Loss is quantized to permille on encode;
/// [`FeedbackFrame::loss`] returns it clamped to `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedbackFrame {
    /// The device the loss report addresses.
    pub device_id: u32,
    /// Message loss estimate, permille (0–1000; larger values are
    /// clamped on read, not on the wire).
    pub(crate) loss_permille: u16,
}

impl FeedbackFrame {
    /// Build a report from the gateway's fractional loss estimate
    /// (rounded to permille — the quantization the wire carries).
    pub fn for_loss(device_id: u32, loss: f64) -> Self {
        FeedbackFrame {
            device_id,
            loss_permille: (loss * 1000.0).round() as u16,
        }
    }

    /// The loss estimate as a fraction, clamped to `[0, 1]`.
    pub fn loss(&self) -> f64 {
        (self.loss_permille as f64 / 1000.0).min(1.0)
    }

    /// Serialize to the 10-byte downlink payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(10);
        frame.extend_from_slice(&FEEDBACK_MAGIC);
        frame.extend_from_slice(&self.device_id.to_be_bytes());
        frame.extend_from_slice(&self.loss_permille.to_be_bytes());
        frame
    }

    /// Parse a downlink payload; `None` if it is short or not a
    /// feedback frame (trailing bytes are tolerated, for forward
    /// compatibility).
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 10 || bytes[..4] != FEEDBACK_MAGIC {
            return None;
        }
        Some(FeedbackFrame {
            device_id: u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
            loss_permille: u16::from_be_bytes([bytes[8], bytes[9]]),
        })
    }
}

/// A receive-window announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxWindow {
    /// Gap between the end of the beacon and the window opening, µs.
    pub offset_us: u16,
    /// Window length, µs.
    pub length_us: u16,
}

impl RxWindow {
    /// Serialize to the vendor-IE payload (4 bytes).
    pub(crate) fn to_bytes(self) -> [u8; 4] {
        let mut b = [0u8; 4];
        b[0..2].copy_from_slice(&self.offset_us.to_be_bytes());
        b[2..4].copy_from_slice(&self.length_us.to_be_bytes());
        b
    }

    /// Parse.
    pub(crate) fn parse(b: &[u8]) -> Option<Self> {
        if b.len() < 4 {
            return None;
        }
        Some(RxWindow {
            offset_us: u16::from_be_bytes([b[0], b[1]]),
            length_us: u16::from_be_bytes([b[2], b[3]]),
        })
    }

    /// The absolute window, given the beacon's end-of-frame time.
    pub fn absolute(&self, beacon_end: Instant) -> (Instant, Instant) {
        let open = beacon_end + Duration::from_us(self.offset_us as u64);
        (open, open + Duration::from_us(self.length_us as u64))
    }
}

/// Build a Wi-LE beacon that also announces a receive window.
pub fn build_twoway_beacon(
    identity: &DeviceIdentity,
    msg: &Message,
    window: RxWindow,
    mac_seq: SeqControl,
) -> Vec<u8> {
    let frags = crate::encode::encode_fragments(msg).expect("payload bounded");
    let mut b = BeaconBuilder::new(identity.mac)
        .seq(mac_seq)
        .hidden_ssid()
        .supported_rates(&[0x82, 0x84]);
    for f in &frags {
        b = b.vendor_specific(WILE_OUI, crate::VTYPE_DATA, f);
    }
    b = b.vendor_specific(WILE_OUI, VTYPE_RX_WINDOW, &window.to_bytes());
    b.build()
}

/// Extract a receive-window announcement from a beacon, if present.
pub fn rx_window_of(beacon: &Beacon<&[u8]>) -> Option<RxWindow> {
    ie::vendor_elements(beacon.elements(), WILE_OUI, VTYPE_RX_WINDOW)
        .next()
        .and_then(|v| RxWindow::parse(v.payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wile_device::{Mcu, PowerState};
    use wile_dot11::phy::{frame_airtime_us, PhyRate};
    use wile_radio::medium::{Medium, RadioConfig, TxParams};

    #[test]
    fn feedback_frame_round_trip() {
        let f = FeedbackFrame::for_loss(0x0102_0304, 0.2185);
        assert_eq!(f.loss_permille, 219); // rounded, not truncated
        let bytes = f.encode();
        assert_eq!(bytes.len(), 10);
        assert_eq!(&bytes[..4], b"WLFB");
        assert_eq!(FeedbackFrame::decode(&bytes), Some(f));
        assert!((f.loss() - 0.219).abs() < 1e-12);
        // Trailing bytes tolerated; short or wrong-magic frames refused.
        let mut long = bytes.clone();
        long.push(0xFF);
        assert_eq!(FeedbackFrame::decode(&long), Some(f));
        assert_eq!(FeedbackFrame::decode(&bytes[..9]), None);
        let mut bad = bytes;
        bad[0] = b'X';
        assert_eq!(FeedbackFrame::decode(&bad), None);
    }

    #[test]
    fn feedback_loss_clamps_to_unit_interval() {
        // A wire value above 1000 permille (possible from a buggy or
        // foreign encoder) reads back as 100% loss, never more.
        let f = FeedbackFrame {
            device_id: 1,
            loss_permille: 5_000,
        };
        assert_eq!(FeedbackFrame::decode(&f.encode()), Some(f));
        assert_eq!(f.loss(), 1.0);
    }

    #[test]
    fn window_round_trip() {
        let w = RxWindow {
            offset_us: 500,
            length_us: 2_000,
        };
        assert_eq!(RxWindow::parse(&w.to_bytes()).unwrap(), w);
        assert!(RxWindow::parse(&[1, 2, 3]).is_none());
    }

    #[test]
    fn absolute_window_computation() {
        let w = RxWindow {
            offset_us: 100,
            length_us: 1_000,
        };
        let (open, close) = w.absolute(Instant::from_ms(5));
        assert_eq!(open, Instant::from_ms(5) + Duration::from_us(100));
        assert_eq!(close.since(open), Duration::from_us(1_000));
    }

    #[test]
    fn twoway_beacon_carries_both_ies() {
        let id = DeviceIdentity::new(3);
        let msg = Message::new(3, 1, b"r");
        let w = RxWindow {
            offset_us: 200,
            length_us: 1_500,
        };
        let frame = build_twoway_beacon(&id, &msg, w, SeqControl::new(0, 0));
        let b = Beacon::new_checked(&frame[..]).unwrap();
        assert_eq!(rx_window_of(&b), Some(w));
        assert!(!crate::beacon::wile_fragments(&b).is_empty());
    }

    #[test]
    fn plain_wile_beacon_has_no_window() {
        let msg = Message::new(3, 1, b"r");
        let frame = crate::beacon::build_wile_beacon(
            DeviceIdentity::new(3).mac,
            &msg,
            SeqControl::new(0, 0),
            0,
        )
        .unwrap();
        let b = Beacon::new_checked(&frame[..]).unwrap();
        assert_eq!(rx_window_of(&b), None);
    }

    #[test]
    fn downlink_inside_window_is_received() {
        let mut medium = Medium::new(Default::default(), 9);
        let dev_radio = medium.attach(RadioConfig::default());
        let gw_radio = medium.attach(RadioConfig {
            position_m: (2.0, 0.0),
            ..Default::default()
        });
        let id = DeviceIdentity::new(3);
        let mut mcu = Mcu::esp32(Instant::ZERO);
        mcu.set_state(PowerState::DeepSleep);
        let w = RxWindow {
            offset_us: 300,
            length_us: 3_000,
        };
        let msg = Message::new(3, 1, b"poll-me");

        // The gateway replies 1 ms after hearing the beacon — inside
        // the window. We pre-schedule based on known timing: beacon
        // ends at wake + boot(350ms) + init(130ms) + ramp(85µs) + airtime.
        let beacon_end_approx = Instant::from_ms(480) + Duration::from_us(85 + 50);
        let reply_at = beacon_end_approx + Duration::from_us(800);
        // Issue the device's cycle first (its tx start precedes reply).
        // The medium requires time-ordered transmits, so we interleave
        // manually: run the device cycle in two steps is not possible —
        // instead transmit the downlink from the gateway right after the
        // device's beacon goes out, before the device polls its inbox:
        // the cycle runs inline so the reply can go in between.
        let mut t_mcu = Mcu::esp32(Instant::ZERO);
        t_mcu.set_state(PowerState::DeepSleep);
        t_mcu.wake_from_deep_sleep();
        t_mcu.wifi_init_inject();
        let frame = build_twoway_beacon(&id, &msg, w, SeqControl::new(0, 0));
        let airtime = Duration::from_us(frame_airtime_us(PhyRate::WILE_PAPER, frame.len()));
        let (on_air, tx_end) = t_mcu.transmit(airtime, 0.0);
        medium.transmit(
            dev_radio,
            on_air,
            TxParams {
                airtime,
                power_dbm: 0.0,
                min_snr_db: PhyRate::WILE_PAPER.min_snr_db(),
            },
            frame,
        );
        // Gateway hears it and replies inside the window.
        let heard = medium.take_inbox(gw_radio, tx_end + Duration::from_ms(1));
        assert_eq!(heard.len(), 1);
        let b = Beacon::new_checked(&heard[0].bytes[..]).unwrap();
        let win = rx_window_of(&b).unwrap();
        let (open, close) = win.absolute(heard[0].at);
        let reply_time = open + Duration::from_us(500);
        assert!(reply_time < close);
        medium.transmit(
            gw_radio,
            reply_time,
            TxParams {
                airtime: Duration::from_us(40),
                power_dbm: 0.0,
                min_snr_db: 5.0,
            },
            b"downlink-cmd",
        );
        // Device listens through its window and finds the frame.
        let (w_open, w_close) = w.absolute(tx_end);
        t_mcu.stay(PowerState::LightSleep, w_open.since(t_mcu.now()));
        t_mcu.listen(w_close.since(t_mcu.now()));
        let got: Vec<_> = medium
            .take_inbox(dev_radio, w_close)
            .into_iter()
            .filter(|f| f.at >= w_open && f.at <= w_close)
            .collect();
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].bytes[..], b"downlink-cmd");
        let _ = reply_at; // documented approximation above
    }
}
