//! [`BleMac`]: the advertising-train backend.
//!
//! MCPS-DATA rides a non-connectable advertising event: the payload is
//! framed by the *same* shared fragment helper as Wi-LE
//! ([`frame_fragment`]), wrapped in a manufacturer-specific AD
//! structure, and transmitted as one PDU per advertising channel
//! (37/38/39) at the advertiser's scheduled cadence. Confirms carry
//! the CC2541-calibrated per-event energy, so Table 1's BLE row and a
//! MAC-routed BLE fleet account energy identically. A non-connectable
//! advertiser neither scans, associates nor listens, so MCPS-DATA is
//! the only primitive; [`BleMac::next_event_at`] gives drivers the
//! train's cadence.
//!
//! The arXiv 2210.06236 direction (IPv6 over BLE advertisements) is
//! why this data plane is first-class: an advertisement-borne payload
//! with a protocol-agnostic upper half, not a side channel.

use crate::primitives::{
    MacProtocol, MacStatus, McpsDataConfirm, McpsDataIndication, McpsDataRequest,
};
use crate::sap::AirCtx;
use wile::encode::{frame_fragment, parse_fragment};
use wile::message::{FragmentHeader, HEADER_LEN, VERSION};
use wile_ble::ad::{find_manufacturer, push_manufacturer};
use wile_ble::advertiser::Advertiser;
use wile_ble::energy::Cc2541Model;
use wile_ble::pdu::{AdvPdu, BleAddr};
use wile_radio::medium::{RadioId, TxParams};
use wile_radio::time::{Duration, Instant};

/// Manufacturer company id carried in every Wi-LE-over-BLE AD
/// structure ("WL").
pub const WILE_COMPANY_ID: u16 = 0x574C;

/// Payload bytes one advertisement can carry: 31 bytes of advertising
/// data minus the AD length/type/company overhead (4) minus the shared
/// fragment header.
pub const BLE_DATA_CAPACITY: usize = 31 - 4 - HEADER_LEN;

/// One advertising device.
struct BleDev {
    device_id: u32,
    addr: BleAddr,
    /// One radio per advertising channel, indexed 37/38/39.
    radios: [RadioId; 3],
    adv: Advertiser,
    seq: u16,
    handle: u64,
}

/// The BLE MAC backend.
#[derive(Default)]
pub struct BleMac {
    devs: Vec<BleDev>,
}

impl BleMac {
    /// An empty BLE MAC; add devices with [`BleMac::push_advertiser`].
    pub fn new() -> Self {
        BleMac { devs: Vec::new() }
    }

    /// Add an advertising device. `radios` must be attached on
    /// channels 37, 38 and 39 in order; returns the device ordinal.
    pub fn push_advertiser(
        &mut self,
        device_id: u32,
        radios: [RadioId; 3],
        adv: Advertiser,
    ) -> u32 {
        self.devs.push(BleDev {
            device_id,
            addr: BleAddr::random_static(device_id),
            radios,
            adv,
            seq: 0,
            handle: 0,
        });
        self.devs.len() as u32 - 1
    }

    /// Number of devices behind this MAC.
    pub fn len(&self) -> usize {
        self.devs.len()
    }

    /// Is the MAC empty?
    pub fn is_empty(&self) -> bool {
        self.devs.is_empty()
    }

    /// When a device's advertiser next fires — drivers wake the device
    /// at this instant so the train keeps its jittered cadence.
    pub fn next_event_at(&self, device: u32) -> Instant {
        self.devs[device as usize].adv.next_event_at()
    }

    /// Defer a device's next advertising event to `t` (no-op if the
    /// train is already scheduled later). Mixed-protocol drivers use
    /// this when the wake that would have carried the event finds the
    /// shared air leased by another exchange: the whole event slips to
    /// the lease end instead of transmitting into the past.
    pub fn defer_event(&mut self, device: u32, t: Instant) {
        self.devs[device as usize].adv.defer_to(t);
    }

    /// Decode one received advertising PDU back into a data
    /// indication — the scanner/gateway side of this backend.
    pub fn decode_advertisement(
        air_bytes: &[u8],
        channel_idx: u8,
        at: Instant,
        rssi_dbm: f64,
    ) -> Option<McpsDataIndication> {
        let pdu = AdvPdu::from_air_bytes(air_bytes, channel_idx)?;
        let frag = find_manufacturer(&pdu.adv_data, WILE_COMPANY_ID)?;
        let (h, chunk) = parse_fragment(frag)?;
        if h.frag_index != 0 || h.frag_count != 1 {
            return None; // advertisements never fragment across events
        }
        Some(McpsDataIndication {
            protocol: MacProtocol::Ble,
            device_id: h.device_id,
            seq: h.seq,
            payload: chunk.into(),
            encrypted: false,
            at,
            rssi_dbm,
        })
    }

    /// MCPS-DATA: carry the payload in the device's next advertising
    /// event, one PDU per advertising channel (refused with
    /// [`MacStatus::FrameTooLong`] above [`BLE_DATA_CAPACITY`]).
    pub fn mcps_data(&mut self, air: &mut AirCtx<'_>, req: McpsDataRequest<'_>) -> McpsDataConfirm {
        air.begin("mac.mcps_data.request");
        let d = &mut self.devs[req.device as usize];
        d.handle += 1;
        if req.payload.len() > BLE_DATA_CAPACITY {
            air.finish("mac.mcps_data.confirm", air.now);
            return McpsDataConfirm {
                device: req.device,
                status: MacStatus::FrameTooLong,
                handle: d.handle,
                seq: d.seq,
                copies_sent: 0,
                beacon_len: 0,
                energy_mj: None,
                t_wake: air.now,
                t_tx_start: air.now,
                t_tx_end: air.now,
                t_sleep: air.now,
                rx_window: None,
            };
        }
        let seq = match req.repeat_of {
            Some(s) => s,
            None => {
                let s = d.seq;
                d.seq = d.seq.wrapping_add(1);
                s
            }
        };
        // The same framing helper as the Wi-LE vendor-IE path; an
        // advertisement always carries exactly one whole fragment.
        let h = FragmentHeader {
            version: VERSION,
            flags: 0,
            device_id: d.device_id,
            seq,
            frag_index: 0,
            frag_count: 1,
        };
        let frag = frame_fragment(&h, req.payload);
        let mut adv_data = Vec::with_capacity(4 + frag.len());
        let ok = push_manufacturer(&mut adv_data, WILE_COMPANY_ID, &frag);
        debug_assert!(ok, "capacity bounded above");
        let pdu = AdvPdu::nonconn(d.addr, &adv_data);

        // One PDU per advertising channel at the scheduled cadence.
        let txs = d.adv.next_event(&pdu);
        let copies = txs.len() as u8;
        let mut t_tx_start = Instant::ZERO;
        let mut t_tx_end = air.now;
        let mut beacon_len = 0;
        for (i, tx) in txs.into_iter().enumerate() {
            let radio = d.radios[(tx.channel - 37) as usize];
            let airtime = Duration::from_us(tx.air_bytes.len() as u64 * 8);
            if i == 0 {
                t_tx_start = tx.at;
                beacon_len = tx.air_bytes.len();
            }
            t_tx_end = tx.at + airtime;
            air.medium.transmit(
                radio,
                tx.at,
                TxParams {
                    airtime,
                    power_dbm: 0.0,
                    min_snr_db: 6.0,
                },
                tx.air_bytes,
            );
        }
        // Table 1's BLE row: the CC2541 closed-form per-event energy.
        let energy_uj = Cc2541Model::default()
            .advertising_event(adv_data.len(), copies as usize)
            .energy_uj();
        air.finish("mac.mcps_data.confirm", t_tx_end);
        McpsDataConfirm {
            device: req.device,
            status: MacStatus::Success,
            handle: d.handle,
            seq,
            copies_sent: copies,
            beacon_len,
            energy_mj: Some(energy_uj / 1000.0),
            t_wake: air.now,
            t_tx_start,
            t_tx_end,
            t_sleep: t_tx_end,
            rx_window: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wile_radio::medium::{Medium, RadioConfig};
    use wile_telemetry::Telemetry;

    fn setup(seed: u64) -> (Medium, BleMac, u32, [RadioId; 3]) {
        let mut m = Medium::new(Default::default(), 3);
        let mut tx_radios = Vec::new();
        let mut rx_radios = Vec::new();
        for ch in 37u8..=39 {
            tx_radios.push(m.attach(RadioConfig {
                channel: ch,
                ..Default::default()
            }));
            rx_radios.push(m.attach(RadioConfig {
                position_m: (2.0, 0.0),
                channel: ch,
                ..Default::default()
            }));
        }
        let mut mac = BleMac::new();
        let dev = mac.push_advertiser(
            7,
            [tx_radios[0], tx_radios[1], tx_radios[2]],
            Advertiser::new(Instant::from_ms(10), Duration::from_ms(100), seed | 1),
        );
        (m, mac, dev, [rx_radios[0], rx_radios[1], rx_radios[2]])
    }

    #[test]
    fn advertisement_round_trips_through_the_shared_framing() {
        let (mut m, mut mac, dev, scanners) = setup(77);
        let mut tel = Telemetry::off();
        let at = mac.next_event_at(dev);
        let mut air = AirCtx::bare(&mut m, at, &mut tel);
        let c = mac.mcps_data(&mut air, McpsDataRequest::plain(dev, b"t=21.5C"));
        assert_eq!(c.status, MacStatus::Success);
        assert_eq!(c.copies_sent, 3, "one PDU per advertising channel");
        let energy_uj = c.energy_mj.unwrap() * 1000.0;
        assert!(
            (40.0..=120.0).contains(&energy_uj),
            "CC2541-scale event energy, got {energy_uj} µJ"
        );

        // Every channel's scanner decodes the same indication.
        let mut decoded = 0;
        for (i, &r) in scanners.iter().enumerate() {
            for f in m.take_inbox(r, c.t_tx_end + Duration::from_ms(1)) {
                let ind =
                    BleMac::decode_advertisement(&f.bytes, 37 + i as u8, f.at, f.rssi_dbm).unwrap();
                assert_eq!(ind.device_id, 7);
                assert_eq!(ind.seq, 0);
                assert_eq!(ind.payload, b"t=21.5C");
                assert_eq!(ind.protocol, MacProtocol::Ble);
                decoded += 1;
            }
        }
        assert_eq!(decoded, 3);
    }

    #[test]
    fn oversized_payload_is_refused_without_touching_the_air() {
        let (mut m, mut mac, dev, _) = setup(9);
        let mut tel = Telemetry::off();
        let at = mac.next_event_at(dev);
        let mut air = AirCtx::bare(&mut m, at, &mut tel);
        let too_big = vec![0u8; BLE_DATA_CAPACITY + 1];
        let c = mac.mcps_data(&mut air, McpsDataRequest::plain(dev, &too_big));
        assert_eq!(c.status, MacStatus::FrameTooLong);
        assert_eq!(m.transmissions().count(), 0);
        // The boundary itself fits.
        let at = mac.next_event_at(dev);
        let mut air = AirCtx::bare(&mut m, at, &mut tel);
        let fits = vec![0u8; BLE_DATA_CAPACITY];
        let c = mac.mcps_data(&mut air, McpsDataRequest::plain(dev, &fits));
        assert_eq!(c.status, MacStatus::Success);
    }

    #[test]
    fn sequence_numbers_and_handles_advance() {
        let (mut m, mut mac, dev, _) = setup(5);
        let mut tel = Telemetry::off();
        for expect in 0..3u16 {
            let at = mac.next_event_at(dev);
            let mut air = AirCtx::bare(&mut m, at, &mut tel);
            let c = mac.mcps_data(&mut air, McpsDataRequest::plain(dev, b"x"));
            assert_eq!(c.seq, expect);
            assert_eq!(c.handle, expect as u64 + 1);
        }
    }

    #[test]
    fn start_reports_the_train_cadence() {
        let (_, mac, dev, _) = setup(3);
        assert_eq!(mac.next_event_at(dev), Instant::from_ms(10));
    }
}
