//! [`WifiMac`]: the full association-stack backend.
//!
//! MLME-SCAN maps onto the probe exchange, MLME-ASSOCIATE onto the
//! complete probe → auth → assoc → 4-way WPA2 → DHCP → ARP → data
//! cycle ([`run_connection`], every frame on the simulated air), and
//! MCPS-DATA onto a connected station's sensor data frame. Each
//! device is a station/AP pair sharing the caller's medium — exactly
//! the shape the association-fleet scenario always used, so confirms
//! reproduce its per-attempt numbers bit for bit.
//!
//! An association is a ~1.5 s synchronous multi-transmission exchange
//! and the medium requires globally non-decreasing transmit starts:
//! callers composing several stations on one medium must reserve the
//! air through [`MlmeAssociateConfirm::t_sleep`] (the kernel's air
//! lease), as the association-fleet actor does.

use crate::primitives::{
    MacStatus, McpsDataConfirm, McpsDataRequest, MlmeAssociateConfirm, MlmeAssociateRequest,
    MlmeScanConfirm, MlmeScanRequest,
};
use crate::sap::AirCtx;
use wile_device::Mcu;
use wile_dot11::phy::{frame_airtime_us, PhyRate};
use wile_dot11::MacAddr;
use wile_instrument::energy::energy_mj;
use wile_netstack::ap::AccessPoint;
use wile_netstack::connect::{run_connection, ConnectConfig};
use wile_netstack::sta::Station;
use wile_radio::medium::{RadioId, TxParams};
use wile_radio::time::Duration;

fn tx_params(rate: PhyRate, power_dbm: f64, len: usize) -> TxParams {
    TxParams {
        airtime: Duration::from_us(frame_airtime_us(rate, len)),
        power_dbm,
        min_snr_db: rate.min_snr_db(),
    }
}

/// AP-side transmit power, dBm (mains-powered, same constant the
/// netstack connection driver uses).
const AP_POWER_DBM: f64 = 20.0;

/// One station/AP pair.
struct WifiDev {
    sta_radio: RadioId,
    ap_radio: RadioId,
    ap: AccessPoint,
    sta_mac: MacAddr,
    passphrase: String,
    cfg: ConnectConfig,
    xid: u32,
    station: Option<Station>,
    seq: u16,
    handle: u64,
}

/// The WiFi MAC backend.
#[derive(Default)]
pub struct WifiMac {
    devs: Vec<WifiDev>,
}

impl WifiMac {
    /// An empty WiFi MAC; add station/AP pairs with
    /// [`WifiMac::push_station`].
    pub fn new() -> Self {
        WifiMac { devs: Vec::new() }
    }

    /// Add a station/AP pair; returns the device ordinal. `xid` seeds
    /// the per-wake transaction id (it increments before every scan or
    /// associate, so a fresh supplicant state is replayed each time).
    #[allow(clippy::too_many_arguments)]
    pub fn push_station(
        &mut self,
        sta_radio: RadioId,
        ap_radio: RadioId,
        ap: AccessPoint,
        sta_mac: MacAddr,
        passphrase: &str,
        cfg: ConnectConfig,
        xid: u32,
    ) -> u32 {
        self.devs.push(WifiDev {
            sta_radio,
            ap_radio,
            ap,
            sta_mac,
            passphrase: passphrase.to_string(),
            cfg,
            xid,
            station: None,
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

    /// Does `device` currently hold a connected station state?
    pub fn is_connected(&self, device: u32) -> bool {
        self.devs[device as usize]
            .station
            .as_ref()
            .map(|s| s.is_connected())
            .unwrap_or(false)
    }

    /// MCPS-DATA: send one sensor data frame from an associated
    /// station (refused with [`MacStatus::NotAssociated`] before a
    /// successful [`WifiMac::mlme_associate`]).
    pub fn mcps_data(&mut self, air: &mut AirCtx<'_>, req: McpsDataRequest<'_>) -> McpsDataConfirm {
        air.begin("mac.mcps_data.request");
        let d = &mut self.devs[req.device as usize];
        d.handle += 1;
        let Some(sta) = d.station.as_mut() else {
            // §3.1's whole point: WiFi cannot send a byte without the
            // association exchange first.
            air.finish("mac.mcps_data.confirm", air.now);
            return McpsDataConfirm {
                device: req.device,
                status: MacStatus::NotAssociated,
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
        };
        let tx = sta.sensor_data_frame(req.payload);
        let beacon_len = tx.frame.len();
        let params = tx_params(d.cfg.rate, d.cfg.tx_power_dbm, beacon_len);
        let t_tx_end = air.now + params.airtime;
        air.medium
            .transmit(d.sta_radio, air.now, params, tx.frame.clone());
        // The AP MAC-ACKs the data frame (and forwards any buffered
        // downlink) with its usual per-frame latency.
        let mut t_done = t_tx_end;
        for resp in d.ap.handle_frame(&tx.frame) {
            let at = t_tx_end + resp.delay;
            let p = tx_params(d.cfg.rate, AP_POWER_DBM, resp.frame.len());
            let end = at + p.airtime;
            air.medium.transmit(d.ap_radio, at, p, resp.frame);
            t_done = t_done.max(end);
        }
        let seq = d.seq;
        d.seq = d.seq.wrapping_add(1);
        air.finish("mac.mcps_data.confirm", t_done);
        McpsDataConfirm {
            device: req.device,
            status: MacStatus::Success,
            handle: d.handle,
            seq,
            copies_sent: 1,
            beacon_len,
            energy_mj: None,
            t_wake: air.now,
            t_tx_start: air.now,
            t_tx_end,
            t_sleep: t_done,
            rx_window: None,
        }
    }

    /// MLME-SCAN: one probe request and the AP's answers.
    pub fn mlme_scan(&mut self, air: &mut AirCtx<'_>, req: MlmeScanRequest) -> MlmeScanConfirm {
        air.begin("mac.mlme_scan.request");
        let d = &mut self.devs[req.device as usize];
        d.handle += 1;
        d.xid = d.xid.wrapping_add(1);
        let ssid = d.ap.ssid.clone();
        let mut sta = Station::new(d.sta_mac, &ssid, &d.passphrase, d.ap.mac, d.xid);
        let probe = sta.start();
        let params = tx_params(d.cfg.rate, d.cfg.tx_power_dbm, probe.frame.len());
        let t_end = air.now + params.airtime;
        air.medium
            .transmit(d.sta_radio, air.now, params, probe.frame.clone());
        let mut frames = 1u64;
        let mut t_done = t_end;
        for resp in d.ap.handle_frame(&probe.frame) {
            let at = t_end + resp.delay;
            let p = tx_params(d.cfg.rate, AP_POWER_DBM, resp.frame.len());
            t_done = t_done.max(at + p.airtime);
            air.medium.transmit(d.ap_radio, at, p, resp.frame);
            frames += 1;
        }
        air.finish("mac.mlme_scan.confirm", t_done);
        MlmeScanConfirm {
            device: req.device,
            status: if frames > 1 {
                MacStatus::Success
            } else {
                MacStatus::Failed
            },
            frames,
            t_done,
        }
    }

    /// MLME-ASSOCIATE: the full probe → auth → assoc → WPA2 → DHCP →
    /// ARP → data exchange, from a fresh supplicant state.
    pub fn mlme_associate(
        &mut self,
        air: &mut AirCtx<'_>,
        req: MlmeAssociateRequest,
    ) -> MlmeAssociateConfirm {
        air.begin("mac.mlme_associate.request");
        let d = &mut self.devs[req.device as usize];
        d.handle += 1;
        // Fresh supplicant state every attempt — a duty-cycled client
        // re-associates from scratch.
        d.xid = d.xid.wrapping_add(1);
        let mut sta = Station::new(
            d.sta_mac,
            &d.ap.ssid.clone(),
            &d.passphrase,
            d.ap.mac,
            d.xid,
        );
        let mut mcu = Mcu::esp32(air.now);
        let model = *mcu.model();
        let out = run_connection(
            air.medium,
            d.sta_radio,
            d.ap_radio,
            &mut d.ap,
            &mut sta,
            &mut mcu,
            &d.cfg,
        );
        let (from, to) = out.active_window();
        let energy = energy_mj(&out.trace, &model, from, to);
        d.station = if out.connected { Some(sta) } else { None };
        air.finish("mac.mlme_associate.confirm", out.t_sleep);
        MlmeAssociateConfirm {
            device: req.device,
            status: if out.connected {
                MacStatus::Success
            } else {
                MacStatus::Failed
            },
            connected: out.connected,
            mac_frames: out.mac_frames as u64,
            higher_layer_frames: out.higher_layer_frames as u64,
            energy_mj: energy,
            t_wake: out.t_wake,
            t_data_sent: out.t_data_sent,
            t_sleep: out.t_sleep,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wile_radio::medium::{Medium, RadioConfig};
    use wile_radio::time::Instant;
    use wile_telemetry::Telemetry;

    fn pair(medium: &mut Medium) -> (RadioId, RadioId) {
        let sta = medium.attach(RadioConfig::default());
        let ap = medium.attach(RadioConfig {
            position_m: (0.0, 1.0),
            ..Default::default()
        });
        (sta, ap)
    }

    fn mac_on(medium: &mut Medium, xid: u32) -> (WifiMac, u32) {
        let (sta_radio, ap_radio) = pair(medium);
        let ap_mac = MacAddr::new([0xAA, 0, 0, 0, 0, 1]);
        let sta_mac = MacAddr::new([0x02, 0, 0, 0, 0, 5]);
        let mut mac = WifiMac::new();
        let dev = mac.push_station(
            sta_radio,
            ap_radio,
            AccessPoint::new(b"HomeNet", "hunter22", ap_mac, 6),
            sta_mac,
            "hunter22",
            ConnectConfig::default(),
            xid,
        );
        (mac, dev)
    }

    #[test]
    fn associate_matches_direct_run_connection_byte_for_byte() {
        // Direct path.
        let mut m_direct = Medium::new(Default::default(), 3);
        let (sta_radio, ap_radio) = pair(&mut m_direct);
        let ap_mac = MacAddr::new([0xAA, 0, 0, 0, 0, 1]);
        let sta_mac = MacAddr::new([0x02, 0, 0, 0, 0, 5]);
        let mut ap = AccessPoint::new(b"HomeNet", "hunter22", ap_mac, 6);
        let mut sta = Station::new(sta_mac, b"HomeNet", "hunter22", ap_mac, 8);
        let mut mcu = Mcu::esp32(Instant::ZERO);
        let out = run_connection(
            &mut m_direct,
            sta_radio,
            ap_radio,
            &mut ap,
            &mut sta,
            &mut mcu,
            &ConnectConfig::default(),
        );
        assert!(out.connected);

        // MAC path: same initial xid minus one (associate pre-increments).
        let mut m_sap = Medium::new(Default::default(), 3);
        let (mut mac, dev) = mac_on(&mut m_sap, 7);
        let mut tel = Telemetry::off();
        let mut air = AirCtx::bare(&mut m_sap, Instant::ZERO, &mut tel);
        let c = mac.mlme_associate(&mut air, MlmeAssociateRequest { device: dev });

        assert!(c.connected);
        assert_eq!(c.status, MacStatus::Success);
        assert_eq!(c.mac_frames, out.mac_frames as u64);
        assert_eq!(c.higher_layer_frames, out.higher_layer_frames as u64);
        assert_eq!(c.t_sleep, out.t_sleep);
        let direct: Vec<_> = m_direct.transmissions().collect();
        let routed: Vec<_> = m_sap.transmissions().collect();
        assert_eq!(direct.len(), routed.len());
        for (a, b) in direct.iter().zip(routed.iter()) {
            assert_eq!(a.1, b.1, "tx instants must match");
            assert_eq!(a.3, b.3, "frame bytes must match");
        }
        assert!(mac.is_connected(dev));
    }

    #[test]
    fn data_before_associate_is_refused() {
        let mut m = Medium::new(Default::default(), 3);
        let (mut mac, dev) = mac_on(&mut m, 1);
        let mut tel = Telemetry::off();
        let mut air = AirCtx::bare(&mut m, Instant::ZERO, &mut tel);
        let c = mac.mcps_data(&mut air, McpsDataRequest::plain(dev, b"t=21.5C"));
        assert_eq!(c.status, MacStatus::NotAssociated);
        assert_eq!(c.copies_sent, 0);
        assert_eq!(m.transmissions().count(), 0);
    }

    #[test]
    fn data_after_associate_reaches_the_air_and_is_acked() {
        let mut m = Medium::new(Default::default(), 3);
        let (mut mac, dev) = mac_on(&mut m, 1);
        let mut tel = Telemetry::off();
        let mut air = AirCtx::bare(&mut m, Instant::ZERO, &mut tel);
        let a = mac.mlme_associate(&mut air, MlmeAssociateRequest { device: dev });
        assert!(a.connected);
        let before = m.transmissions().count();
        let mut air = AirCtx::bare(&mut m, a.t_sleep + Duration::from_ms(5), &mut tel);
        let c = mac.mcps_data(&mut air, McpsDataRequest::plain(dev, b"t=22.0C"));
        assert_eq!(c.status, MacStatus::Success);
        // Data frame + the AP's MAC ACK.
        assert_eq!(m.transmissions().count(), before + 2);
        assert!(c.t_sleep > c.t_tx_end);
        assert_eq!(c.handle, 2);
    }

    #[test]
    fn scan_finds_the_ap() {
        let mut m = Medium::new(Default::default(), 3);
        let (mut mac, dev) = mac_on(&mut m, 1);
        let mut tel = Telemetry::off();
        let mut air = AirCtx::bare(&mut m, Instant::ZERO, &mut tel);
        let c = mac.mlme_scan(&mut air, MlmeScanRequest { device: dev });
        assert_eq!(c.status, MacStatus::Success, "{c:?}");
        assert!(c.frames >= 2);
    }
}
