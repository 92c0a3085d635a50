//! [`WileMac`]: the beacon-stuffed injection backend.
//!
//! Two internal modes, matching the two ways the repo drives Wi-LE:
//!
//! - **Injector mode** — one [`Injector`] per device with a full MCU
//!   power trace, optional [`AdaptiveRepeat`] control, two-way receive
//!   windows. This is the campaign/session face; confirms carry
//!   per-request energy.
//! - **Template mode** — the SoA fleet face: parallel
//!   radios/ids/seqs/sent vectors plus one beacon template and one
//!   payload buffer shared fleet-wide, no per-device trace (energy is
//!   attributed in closed form by the caller). Template fleets are
//!   transmit-only: MLME-WAKE and the injector accessors panic on them.
//!
//! The backend serves MCPS-DATA and MLME-WAKE only. §4.1: "Wi-LE does
//! not associate with an AP for transmission", so there is no scan or
//! associate primitive to call.

use crate::primitives::{
    MacStatus, McpsDataConfirm, McpsDataRequest, MlmeWakeConfirm, MlmeWakeRequest,
};
use crate::sap::AirCtx;
use wile::beacon::BeaconTemplate;
use wile::inject::Injector;
use wile::message::Message;
use wile::reliability::{inject_with_repeats, AdaptiveRepeat, RepeatPolicy};
use wile_dot11::mac::SeqControl;
use wile_dot11::phy::{frame_airtime_us, PhyRate};
use wile_dot11::MacAddr;
use wile_instrument::energy::energy_mj;
use wile_radio::medium::{RadioId, TxParams};
use wile_radio::time::Duration;

/// One injector-mode device.
struct InjDev {
    inj: Injector,
    radio: RadioId,
    adaptive: Option<AdaptiveRepeat>,
    static_policy: RepeatPolicy,
    handle: u64,
}

/// The SoA template fleet (see module docs).
struct Templates {
    /// One template, re-stamped with each device's identity per render.
    template: BeaconTemplate,
    radios: Vec<RadioId>,
    device_ids: Vec<u32>,
    seqs: Vec<u16>,
    sent: Vec<u32>,
    payload: Vec<u8>,
    tx_power_dbm: f64,
}

enum Backing {
    Injectors(Vec<InjDev>),
    Templates(Templates),
}

/// The Wi-LE MAC backend.
pub struct WileMac {
    backing: Backing,
}

impl Default for WileMac {
    fn default() -> Self {
        Self::new()
    }
}

impl WileMac {
    /// An empty injector-mode MAC; add devices with
    /// [`WileMac::push_injector`].
    pub fn new() -> Self {
        WileMac {
            backing: Backing::Injectors(Vec::new()),
        }
    }

    /// An empty template-mode MAC sharing one `payload` buffer and one
    /// beacon template across the fleet; add devices with
    /// [`WileMac::push_device`].
    ///
    /// Panics if `payload` does not fit one Wi-LE fragment.
    pub fn with_templates(payload: Vec<u8>, tx_power_dbm: f64) -> Self {
        let template = BeaconTemplate::new(MacAddr::from_device_id(0), 0, payload.len())
            .expect("payload fits one fragment");
        WileMac {
            backing: Backing::Templates(Templates {
                template,
                radios: Vec::new(),
                device_ids: Vec::new(),
                seqs: Vec::new(),
                sent: Vec::new(),
                payload,
                tx_power_dbm,
            }),
        }
    }

    /// Add an injector-mode device; returns its ordinal.
    pub fn push_injector(&mut self, inj: Injector, radio: RadioId) -> u32 {
        let Backing::Injectors(devs) = &mut self.backing else {
            panic!("push_injector on a template-mode WileMac");
        };
        devs.push(InjDev {
            inj,
            radio,
            adaptive: None,
            static_policy: RepeatPolicy::SINGLE,
            handle: 0,
        });
        devs.len() as u32 - 1
    }

    /// Add a template-mode device transmitting as `device_id` (with the
    /// address `DeviceIdentity::new(device_id)` gives it) on `radio`;
    /// returns its ordinal.
    pub fn push_device(&mut self, device_id: u32, radio: RadioId) -> u32 {
        let Backing::Templates(t) = &mut self.backing else {
            panic!("push_device on an injector-mode WileMac");
        };
        t.radios.push(radio);
        t.device_ids.push(device_id);
        t.seqs.push(0);
        t.sent.push(0);
        t.radios.len() as u32 - 1
    }

    /// Number of devices behind this MAC.
    pub fn len(&self) -> usize {
        match &self.backing {
            Backing::Injectors(d) => d.len(),
            Backing::Templates(t) => t.radios.len(),
        }
    }

    /// Is the MAC empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn inj_dev(&self, device: u32) -> &InjDev {
        let Backing::Injectors(devs) = &self.backing else {
            panic!("injector accessor on a template-mode WileMac");
        };
        &devs[device as usize]
    }

    fn inj_dev_mut(&mut self, device: u32) -> &mut InjDev {
        let Backing::Injectors(devs) = &mut self.backing else {
            panic!("injector accessor on a template-mode WileMac");
        };
        &mut devs[device as usize]
    }

    /// Install adaptive repeat control for an injector-mode device.
    pub fn set_adaptive(&mut self, device: u32, adaptive: AdaptiveRepeat) {
        self.inj_dev_mut(device).adaptive = Some(adaptive);
    }

    /// Set the static repeat policy used when no adaptive controller is
    /// installed.
    pub fn set_static_policy(&mut self, device: u32, policy: RepeatPolicy) {
        self.inj_dev_mut(device).static_policy = policy;
    }

    /// The repeat policy currently in force for a device (adaptive if
    /// installed, else the static one).
    pub fn policy(&self, device: u32) -> RepeatPolicy {
        let d = self.inj_dev(device);
        d.adaptive
            .as_ref()
            .map(|a| a.policy())
            .unwrap_or(d.static_policy)
    }

    /// The adaptive controller's period backoff (zero without one).
    pub fn period_backoff(&self, device: u32) -> Duration {
        self.inj_dev(device)
            .adaptive
            .as_ref()
            .map(|a| a.period_backoff())
            .unwrap_or(Duration::ZERO)
    }

    /// Feed a gateway loss estimate to the adaptive controller.
    pub fn record_feedback(&mut self, device: u32, loss: f64) {
        if let Some(a) = self.inj_dev_mut(device).adaptive.as_mut() {
            a.record_feedback(loss);
        }
    }

    /// Report a carrier-busy observation to the adaptive controller.
    pub fn observe_air_busy(&mut self, device: u32, busy: bool) {
        if let Some(a) = self.inj_dev_mut(device).adaptive.as_mut() {
            a.observe_air_busy(busy);
        }
    }

    /// Borrow an injector-mode device's injector (summaries read the
    /// power trace and identity through this).
    pub fn injector(&self, device: u32) -> &Injector {
        &self.inj_dev(device).inj
    }

    /// The radio a device transmits on.
    pub fn radio(&self, device: u32) -> RadioId {
        match &self.backing {
            Backing::Injectors(d) => d[device as usize].radio,
            Backing::Templates(t) => t.radios[device as usize],
        }
    }

    /// Template mode: total beacons sent across the fleet.
    pub fn total_sent(&self) -> u64 {
        let Backing::Templates(t) = &self.backing else {
            panic!("total_sent on an injector-mode WileMac");
        };
        t.sent.iter().map(|&s| s as u64).sum()
    }

    /// MCPS-DATA: transmit one payload (and optionally announce a
    /// receive window). Template-mode devices send their fleet's shared
    /// reading buffer and ignore the request's payload, window and
    /// repeat fields.
    pub fn mcps_data(&mut self, air: &mut AirCtx<'_>, req: McpsDataRequest<'_>) -> McpsDataConfirm {
        air.begin("mac.mcps_data.request");
        let confirm = if let Backing::Templates(t) = &mut self.backing {
            Self::template_data(t, air, req.device)
        } else {
            self.inject_data(air, req)
        };
        air.finish("mac.mcps_data.confirm", confirm.t_sleep);
        confirm
    }

    /// MLME-WAKE: listen on an injector-mode device's radio from
    /// `req.open` to `req.close` and return at most one downlink frame.
    ///
    /// Panics on a template-mode MAC (template fleets are transmit-only).
    pub fn mlme_wake(&mut self, air: &mut AirCtx<'_>, req: MlmeWakeRequest) -> MlmeWakeConfirm {
        air.begin("mac.mlme_wake.request");
        let d = self.inj_dev_mut(req.device);
        let downlink = d
            .inj
            .listen_window(air.medium, d.radio, req.open, req.close);
        d.handle += 1;
        air.finish("mac.mlme_wake.confirm", req.close.max(air.now));
        MlmeWakeConfirm {
            device: req.device,
            downlink,
            listened: req.close.since(req.open),
        }
    }

    /// Injector-mode data path.
    fn inject_data(&mut self, air: &mut AirCtx<'_>, req: McpsDataRequest<'_>) -> McpsDataConfirm {
        let policy = if req.copies > 1 {
            RepeatPolicy {
                copies: req.copies,
                spacing: self.policy(req.device).spacing,
            }
        } else {
            RepeatPolicy::SINGLE
        };
        let d = self.inj_dev_mut(req.device);
        d.inj.sleep_until(air.now);
        let device_id = d.inj.identity().device_id;

        let (reports, rx_window) = if let Some(window) = req.rx_window {
            let rep = d
                .inj
                .inject_twoway(air.medium, d.radio, req.payload, window);
            let abs = window.absolute(rep.t_tx_end);
            (vec![rep], Some(abs))
        } else if let Some(seq) = req.repeat_of {
            let msg = Message::new(device_id, seq, req.payload);
            (vec![d.inj.inject_message(air.medium, d.radio, &msg)], None)
        } else if policy.copies > 1 {
            (
                inject_with_repeats(&mut d.inj, air.medium, d.radio, req.payload, policy),
                None,
            )
        } else {
            (vec![d.inj.inject(air.medium, d.radio, req.payload)], None)
        };

        let first = reports.first().expect("at least one copy");
        let last = reports.last().expect("at least one copy");
        let model = d.inj.model();
        let mut total_mj = 0.0;
        for r in &reports {
            let (from, to) = r.tx_window();
            total_mj += energy_mj(d.inj.trace(), &model, from, to);
        }
        d.handle += 1;
        McpsDataConfirm {
            device: req.device,
            status: MacStatus::Success,
            handle: d.handle,
            seq: first.seq,
            copies_sent: reports.len() as u8,
            beacon_len: first.beacon_len,
            energy_mj: Some(total_mj),
            t_wake: first.t_wake,
            t_tx_start: first.t_tx_start,
            t_tx_end: last.t_tx_end,
            t_sleep: last.t_sleep,
            rx_window,
        }
    }

    /// Template-mode data path: re-stamp the shared template with the
    /// device's identity and transmit it.
    fn template_data(t: &mut Templates, air: &mut AirCtx<'_>, device: u32) -> McpsDataConfirm {
        let i = device as usize;
        let seq = t.seqs[i];
        let frame = t.template.render_as(
            t.device_ids[i],
            seq,
            SeqControl::new(seq & 0x0FFF, 0),
            &t.payload,
        );
        let beacon_len = frame.len();
        let airtime = Duration::from_us(frame_airtime_us(PhyRate::WILE_PAPER, beacon_len));
        air.medium.transmit(
            t.radios[i],
            air.now,
            TxParams {
                airtime,
                power_dbm: t.tx_power_dbm,
                min_snr_db: PhyRate::WILE_PAPER.min_snr_db(),
            },
            frame,
        );
        t.seqs[i] = seq.wrapping_add(1);
        t.sent[i] += 1;
        let t_end = air.now + airtime;
        McpsDataConfirm {
            device,
            status: MacStatus::Success,
            handle: t.sent[i] as u64,
            seq,
            copies_sent: 1,
            beacon_len,
            energy_mj: None,
            t_wake: air.now,
            t_tx_start: air.now,
            t_tx_end: t_end,
            t_sleep: t_end,
            rx_window: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::McpsDataRequest;
    use wile::monitor::Gateway;
    use wile::registry::DeviceIdentity;
    use wile_radio::medium::{Medium, RadioConfig};
    use wile_radio::time::Instant;
    use wile_telemetry::Telemetry;

    fn medium() -> Medium {
        Medium::new(Default::default(), 3)
    }

    #[test]
    fn injector_mode_matches_direct_injection_byte_for_byte() {
        // MAC-routed injection vs the raw Injector: same frames on air.
        let mut m_direct = medium();
        let r_direct = m_direct.attach(RadioConfig::default());
        let mut inj = Injector::new(DeviceIdentity::new(7), Instant::ZERO);
        let rep = inj.inject(&mut m_direct, r_direct, b"t=21.5C");

        let mut m_sap = medium();
        let r_sap = m_sap.attach(RadioConfig::default());
        let mut mac = WileMac::new();
        let dev = mac.push_injector(Injector::new(DeviceIdentity::new(7), Instant::ZERO), r_sap);
        let mut tel = Telemetry::off();
        let mut air = AirCtx::bare(&mut m_sap, Instant::ZERO, &mut tel);
        let confirm = mac.mcps_data(&mut air, McpsDataRequest::plain(dev, b"t=21.5C"));

        let direct: Vec<_> = m_direct.transmissions().collect();
        let routed: Vec<_> = m_sap.transmissions().collect();
        assert_eq!(direct.len(), 1);
        assert_eq!(direct[0].3, routed[0].3, "frame bytes must match");
        assert_eq!(direct[0].1, routed[0].1, "tx instants must match");
        assert_eq!(confirm.report().seq, rep.seq);
        assert_eq!(confirm.report().t_sleep, rep.t_sleep);
        assert_eq!(confirm.handle, 1);
        assert!(confirm.energy_mj.unwrap() > 0.0);
    }

    #[test]
    fn template_mode_matches_soa_fleet_wake_byte_for_byte() {
        use wile::beacon::BeaconTemplate;
        let identity = DeviceIdentity::new(3);
        let at = Instant::from_ms(500);

        // Direct render-and-transmit from a per-device template.
        let mut m_direct = medium();
        let r = m_direct.attach(RadioConfig::default());
        let mut tpl = BeaconTemplate::new(identity.mac, 3, 8).unwrap();
        let payload = vec![0u8; 8];
        let frame = tpl.render(0, SeqControl::new(0, 0), &payload);
        let airtime = Duration::from_us(frame_airtime_us(PhyRate::WILE_PAPER, frame.len()));
        m_direct.transmit(
            r,
            at,
            TxParams {
                airtime,
                power_dbm: 0.0,
                min_snr_db: PhyRate::WILE_PAPER.min_snr_db(),
            },
            frame,
        );

        // MAC-routed template transmit.
        let mut m_sap = medium();
        let r2 = m_sap.attach(RadioConfig::default());
        let mut mac = WileMac::with_templates(vec![0u8; 8], 0.0);
        let dev = mac.push_device(3, r2);
        let mut tel = Telemetry::off();
        let mut air = AirCtx::bare(&mut m_sap, at, &mut tel);
        let c = mac.mcps_data(&mut air, McpsDataRequest::plain(dev, &[]));

        let direct: Vec<_> = m_direct.transmissions().collect();
        let routed: Vec<_> = m_sap.transmissions().collect();
        assert_eq!(direct[0].3, routed[0].3);
        assert_eq!(direct[0].1, routed[0].1);
        assert_eq!(c.seq, 0);
        assert_eq!(mac.total_sent(), 1);
    }

    #[test]
    fn confirms_are_fifo_per_device() {
        let mut m = medium();
        let mut mac = WileMac::new();
        let r0 = m.attach(RadioConfig::default());
        let r1 = m.attach(RadioConfig {
            position_m: (1.0, 0.0),
            ..Default::default()
        });
        let d0 = mac.push_injector(Injector::new(DeviceIdentity::new(1), Instant::ZERO), r0);
        let d1 = mac.push_injector(Injector::new(DeviceIdentity::new(2), Instant::ZERO), r1);
        let mut tel = Telemetry::off();
        let mut handles = [Vec::new(), Vec::new()];
        let mut now = Instant::ZERO;
        for i in 0..6u32 {
            let dev = if i % 2 == 0 { d0 } else { d1 };
            let mut air = AirCtx::bare(&mut m, now, &mut tel);
            let c = mac.mcps_data(&mut air, McpsDataRequest::plain(dev, b"x"));
            now = c.t_sleep;
            handles[dev as usize].push(c.handle);
        }
        assert_eq!(handles[0], vec![1, 2, 3]);
        assert_eq!(handles[1], vec![1, 2, 3]);
    }

    #[test]
    fn wake_primitive_catches_downlink_in_window() {
        let mut m = medium();
        let gw_radio = m.attach(RadioConfig::default());
        let dev_radio = m.attach(RadioConfig {
            position_m: (1.0, 0.0),
            ..Default::default()
        });
        let mut mac = WileMac::new();
        let dev = mac.push_injector(
            Injector::new(DeviceIdentity::new(5), Instant::ZERO),
            dev_radio,
        );
        let mut tel = Telemetry::off();

        let mut air = AirCtx::bare(&mut m, Instant::ZERO, &mut tel);
        let c = mac.mcps_data(&mut air, McpsDataRequest::plain(dev, b"up"));

        // Gateway pages the device inside a window after the uplink.
        let open = c.t_sleep + Duration::from_ms(1);
        let close = open + Duration::from_ms(2);
        m.transmit(
            gw_radio,
            open + Duration::from_us(300),
            TxParams {
                airtime: Duration::from_us(60),
                power_dbm: 0.0,
                min_snr_db: 5.0,
            },
            b"page!".to_vec(),
        );
        let mut air = AirCtx::bare(&mut m, open, &mut tel);
        let wake = mac.mlme_wake(
            &mut air,
            MlmeWakeRequest {
                device: dev,
                open,
                close,
            },
        );
        assert_eq!(wake.downlink.as_deref(), Some(&b"page!"[..]));
        assert_eq!(wake.listened, Duration::from_ms(2));
    }

    #[test]
    fn repeats_reuse_the_sequence_number() {
        let mut m = medium();
        let r = m.attach(RadioConfig::default());
        let gw = m.attach(RadioConfig {
            position_m: (1.0, 0.0),
            ..Default::default()
        });
        let mut mac = WileMac::new();
        let dev = mac.push_injector(Injector::new(DeviceIdentity::new(9), Instant::ZERO), r);
        let mut tel = Telemetry::off();
        let mut air = AirCtx::bare(&mut m, Instant::ZERO, &mut tel);
        let first = mac.mcps_data(&mut air, McpsDataRequest::plain(dev, b"r1"));
        let mut air = AirCtx::bare(&mut m, first.t_sleep + Duration::from_ms(10), &mut tel);
        let copy = mac.mcps_data(
            &mut air,
            McpsDataRequest {
                device: dev,
                payload: b"r1",
                rx_window: None,
                copies: 1,
                repeat_of: Some(first.seq),
            },
        );
        assert_eq!(copy.seq, first.seq);
        // The gateway dedups the copy: one delivery, one duplicate.
        let mut gateway = Gateway::new();
        let got = gateway.poll(&mut m, gw, copy.t_sleep);
        assert_eq!(got.len(), 1);
        assert_eq!(gateway.stats().duplicates, 1);
    }

    #[test]
    fn telemetry_counts_requests_and_confirms() {
        let mut m = medium();
        let r = m.attach(RadioConfig::default());
        let mut mac = WileMac::new();
        let dev = mac.push_injector(Injector::new(DeviceIdentity::new(1), Instant::ZERO), r);
        let mut tel = Telemetry::new();
        let mut air = AirCtx::bare(&mut m, Instant::ZERO, &mut tel);
        let c = mac.mcps_data(&mut air, McpsDataRequest::plain(dev, b"x"));
        let open = c.t_sleep + Duration::from_ms(1);
        let mut air = AirCtx::bare(&mut m, open, &mut tel);
        mac.mlme_wake(
            &mut air,
            MlmeWakeRequest {
                device: dev,
                open,
                close: open + Duration::from_ms(2),
            },
        );
        for name in [
            "mac.mcps_data.request",
            "mac.mcps_data.confirm",
            "mac.mlme_wake.request",
            "mac.mlme_wake.confirm",
        ] {
            assert_eq!(tel.registry().counter(name, &[]), Some(1), "{name}");
        }
    }
}
