//! [`WileMac`]: the beacon-stuffed injection backend.
//!
//! One [`Injector`] per device with a full MCU power trace, optional
//! [`AdaptiveRepeat`] control and two-way receive windows: the
//! campaign and session face, whose confirms carry per-request energy.
//! Transmit-only template fleets are [`BeaconFleet`](crate::BeaconFleet).
//!
//! The backend serves MCPS-DATA and MLME-WAKE only. §4.1: "Wi-LE does
//! not associate with an AP for transmission", so there is no scan or
//! associate primitive to call.

use crate::primitives::{
    MacStatus, McpsDataConfirm, McpsDataRequest, MlmeWakeConfirm, MlmeWakeRequest,
};
use crate::sap::AirCtx;
use wile::inject::Injector;
use wile::message::Message;
use wile::reliability::{inject_with_repeats, AdaptiveRepeat, RepeatPolicy};
use wile_instrument::energy::energy_mj;
use wile_radio::medium::RadioId;
use wile_radio::time::Duration;

/// One device.
struct InjDev {
    inj: Injector,
    radio: RadioId,
    adaptive: Option<AdaptiveRepeat>,
    static_policy: RepeatPolicy,
    handle: u64,
}

/// The Wi-LE MAC backend.
#[derive(Default)]
pub struct WileMac {
    devs: Vec<InjDev>,
}

impl WileMac {
    /// An empty MAC; add devices with [`WileMac::push_injector`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a device; returns its ordinal.
    pub fn push_injector(&mut self, inj: Injector, radio: RadioId) -> u32 {
        self.devs.push(InjDev {
            inj,
            radio,
            adaptive: None,
            static_policy: RepeatPolicy::SINGLE,
            handle: 0,
        });
        self.devs.len() as u32 - 1
    }

    /// Install adaptive repeat control for a device.
    pub fn set_adaptive(&mut self, device: u32, adaptive: AdaptiveRepeat) {
        self.devs[device as usize].adaptive = Some(adaptive);
    }

    /// Set the static repeat policy used when no adaptive controller is
    /// installed.
    pub fn set_static_policy(&mut self, device: u32, policy: RepeatPolicy) {
        self.devs[device as usize].static_policy = policy;
    }

    /// The repeat policy currently in force for a device (adaptive if
    /// installed, else the static one).
    pub fn policy(&self, device: u32) -> RepeatPolicy {
        let d = &self.devs[device as usize];
        d.adaptive
            .as_ref()
            .map(|a| a.policy())
            .unwrap_or(d.static_policy)
    }

    /// The adaptive controller's period backoff (zero without one).
    pub fn period_backoff(&self, device: u32) -> Duration {
        self.devs[device as usize]
            .adaptive
            .as_ref()
            .map(|a| a.period_backoff())
            .unwrap_or(Duration::ZERO)
    }

    /// Feed a gateway loss estimate to the adaptive controller.
    pub fn record_feedback(&mut self, device: u32, loss: f64) {
        if let Some(a) = self.devs[device as usize].adaptive.as_mut() {
            a.record_feedback(loss);
        }
    }

    /// Report a carrier-busy observation to the adaptive controller.
    pub fn observe_air_busy(&mut self, device: u32, busy: bool) {
        if let Some(a) = self.devs[device as usize].adaptive.as_mut() {
            a.observe_air_busy(busy);
        }
    }

    /// Borrow a device's injector (summaries read the power trace and
    /// identity through this).
    pub fn injector(&self, device: u32) -> &Injector {
        &self.devs[device as usize].inj
    }

    /// MCPS-DATA: transmit one payload (and optionally announce a
    /// receive window).
    pub fn mcps_data(&mut self, air: &mut AirCtx<'_>, req: McpsDataRequest<'_>) -> McpsDataConfirm {
        air.begin("mac.mcps_data.request");
        let confirm = self.inject_data(air, req);
        air.finish("mac.mcps_data.confirm", confirm.t_sleep);
        confirm
    }

    /// MLME-WAKE: listen on a device's radio from `req.open` to
    /// `req.close` and return at most one downlink frame.
    pub fn mlme_wake(&mut self, air: &mut AirCtx<'_>, req: MlmeWakeRequest) -> MlmeWakeConfirm {
        air.begin("mac.mlme_wake.request");
        let d = &mut self.devs[req.device as usize];
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

    /// The data path behind [`WileMac::mcps_data`].
    fn inject_data(&mut self, air: &mut AirCtx<'_>, req: McpsDataRequest<'_>) -> McpsDataConfirm {
        let policy = if req.copies > 1 {
            RepeatPolicy {
                copies: req.copies,
                spacing: self.policy(req.device).spacing,
            }
        } else {
            RepeatPolicy::SINGLE
        };
        let d = &mut self.devs[req.device as usize];
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::McpsDataRequest;
    use wile::monitor::Gateway;
    use wile::registry::DeviceIdentity;
    use wile_radio::medium::{Medium, RadioConfig, TxParams};
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
            b"page!",
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
