//! The device side of Wi-LE: wake, build a fake beacon, inject it,
//! go back to deep sleep.
//!
//! "When the microcontroller wakes up, it embeds its data in a beacon
//! frame, transmits it immediately and goes back to sleep. Note that
//! Wi-LE does not associate with an AP for transmission." (§4.1)
//!
//! Every injection drives the device's [`wile_device::Mcu`] through the
//! same power states the paper's Figure 3b shows, so integrating the
//! trace reproduces both the figure and the 84 µJ Table 1 entry.

use crate::beacon::build_wile_beacon;
use crate::message::Message;
use crate::registry::DeviceIdentity;
use crate::security::encrypt_message;
use wile_device::{Mcu, StateTrace};
use wile_dot11::mac::SeqControl;
use wile_dot11::phy::{frame_airtime_us, PhyRate};
use wile_radio::medium::{Medium, RadioId, TxParams};
use wile_radio::time::{Duration, Instant};

/// What one injection produced.
#[derive(Debug, Clone)]
pub struct InjectReport {
    /// Message sequence number used.
    pub seq: u16,
    /// Complete beacon length (bytes, incl. FCS).
    pub beacon_len: usize,
    /// Wake instant (start of the boot ramp).
    pub t_wake: Instant,
    /// TX-window start (PA ramp begins) — the left edge of the §5.4
    /// energy-per-packet accounting.
    pub t_tx_start: Instant,
    /// End of the PPDU on air.
    pub t_tx_end: Instant,
    /// Instant the device re-entered deep sleep.
    pub t_sleep: Instant,
}

impl InjectReport {
    /// The window §5.4 integrates: "we consider only the time required
    /// to transmit the packet" (PA ramp + airtime).
    pub fn tx_window(&self) -> (Instant, Instant) {
        (self.t_tx_start, self.t_tx_end)
    }

    /// The whole active window (wake → sleep), used by the
    /// full-wake-cycle ablation.
    pub fn active_window(&self) -> (Instant, Instant) {
        (self.t_wake, self.t_sleep)
    }
}

/// A Wi-LE transmitter bound to one device identity.
#[derive(Debug)]
pub struct Injector {
    identity: DeviceIdentity,
    mcu: Mcu,
    seq: u16,
    /// Epoch counter: increments each time `seq` wraps (keeps AEAD
    /// nonces unique).
    pub(crate) epoch: u16,
    mac_seq: SeqControl,
    /// PHY rate for injections — the paper's 72.2 Mb/s by default.
    pub rate: PhyRate,
    /// Transmit power, dBm — the paper's 0 dBm by default.
    pub(crate) power_dbm: f64,
}

impl Injector {
    /// A new injector whose device is deep-asleep at `start`.
    pub fn new(identity: DeviceIdentity, start: Instant) -> Self {
        let mut mcu = Mcu::esp32(start);
        mcu.set_state(wile_device::PowerState::DeepSleep);
        Injector {
            identity,
            mcu,
            seq: 0,
            epoch: 0,
            mac_seq: SeqControl::new(0, 0),
            rate: PhyRate::WILE_PAPER,
            power_dbm: 0.0,
        }
    }

    /// A new injector with a custom device model (ASIC ablation).
    pub fn with_mcu(identity: DeviceIdentity, mcu: Mcu) -> Self {
        Injector {
            identity,
            mcu,
            seq: 0,
            epoch: 0,
            mac_seq: SeqControl::new(0, 0),
            rate: PhyRate::WILE_PAPER,
            power_dbm: 0.0,
        }
    }

    /// The device identity.
    pub fn identity(&self) -> &DeviceIdentity {
        &self.identity
    }

    /// The device's power trace so far.
    pub fn trace(&self) -> &StateTrace {
        self.mcu.trace()
    }

    /// The device's current model.
    pub fn model(&self) -> wile_device::CurrentModel {
        *self.mcu.model()
    }

    /// Local time (end of the last scripted action).
    pub fn now(&self) -> Instant {
        self.mcu.now()
    }

    /// Remain in deep sleep until `at`.
    pub fn sleep_until(&mut self, at: Instant) {
        self.mcu.wait_until(at);
    }

    fn next_seq(&mut self) -> u16 {
        let s = self.seq;
        self.seq = self.seq.wrapping_add(1);
        if self.seq == 0 {
            self.epoch = self.epoch.wrapping_add(1);
        }
        s
    }

    /// Wake now, inject `payload` as a plaintext Wi-LE message, sleep.
    pub fn inject(&mut self, medium: &mut Medium, radio: RadioId, payload: &[u8]) -> InjectReport {
        let seq = self.next_seq();
        let msg = Message::new(self.identity.device_id, seq, payload);
        self.inject_message(medium, radio, &msg)
    }

    /// Wake now, inject an encrypted message (§6 security), sleep.
    pub fn inject_sealed(
        &mut self,
        medium: &mut Medium,
        radio: RadioId,
        plaintext: &[u8],
    ) -> InjectReport {
        let seq = self.next_seq();
        let msg = encrypt_message(&self.identity, self.epoch, seq, plaintext);
        self.inject_message(medium, radio, &msg)
    }

    /// Wake, inject a beacon that *also announces a receive window*
    /// (§6 two-way), and stay awake — the caller must follow up with
    /// [`Injector::listen_window`], which listens through the window
    /// and then deep-sleeps. Used by [`crate::session::run_session`].
    pub fn inject_twoway(
        &mut self,
        medium: &mut Medium,
        radio: RadioId,
        payload: &[u8],
        window: crate::twoway::RxWindow,
    ) -> InjectReport {
        let seq = self.next_seq();
        let mut msg = Message::new(self.identity.device_id, seq, payload);
        msg.flags = crate::message::FLAG_RX_WINDOW;

        let t_wake = self.mcu.now();
        self.mcu.begin_phase("MC/WiFi init");
        self.mcu.wake_from_deep_sleep();
        self.mcu.wifi_init_inject();
        self.mcu.begin_phase("Tx");
        let mac_seq = self.mac_seq;
        self.mac_seq = self.mac_seq.next_seq();
        let frame = crate::twoway::build_twoway_beacon(&self.identity, &msg, window, mac_seq);
        let beacon_len = frame.len();
        let airtime = Duration::from_us(frame_airtime_us(self.rate, beacon_len));
        let t_tx_start = self.mcu.now();
        let (on_air, t_tx_end) = self.mcu.transmit(airtime, self.power_dbm);
        medium.transmit(
            radio,
            on_air,
            TxParams {
                airtime,
                power_dbm: self.power_dbm,
                min_snr_db: self.rate.min_snr_db(),
            },
            frame,
        );
        self.mcu.wait_until(t_tx_end);
        // NOTE: no deep sleep — listen_window() completes the cycle.
        InjectReport {
            seq,
            beacon_len,
            t_wake,
            t_tx_start,
            t_tx_end,
            t_sleep: t_tx_end,
        }
    }

    /// Light-sleep until `open`, listen until `close`, collect at most
    /// one frame from the window, then deep-sleep. Pairs with
    /// [`Injector::inject_twoway`].
    pub fn listen_window(
        &mut self,
        medium: &mut Medium,
        radio: RadioId,
        open: Instant,
        close: Instant,
    ) -> Option<Vec<u8>> {
        self.mcu.begin_phase("RX window");
        if open > self.mcu.now() {
            self.mcu.stay(
                wile_device::PowerState::LightSleep,
                open.since(self.mcu.now()),
            );
        }
        self.mcu.listen(close.since(self.mcu.now()));
        let got = medium
            .take_inbox(radio, close)
            .into_iter()
            .filter(|f| f.at >= open && f.at <= close)
            .map(|f| f.bytes.to_vec())
            .next();
        self.mcu.begin_phase("Sleep (after)");
        self.mcu.deep_sleep();
        self.mcu.end_phase();
        got
    }

    /// The common injection path for a prepared message.
    pub fn inject_message(
        &mut self,
        medium: &mut Medium,
        radio: RadioId,
        msg: &Message,
    ) -> InjectReport {
        let t_wake = self.mcu.now();
        // Fig. 3b phase 1: MCU boot + (injection-only) WiFi bring-up.
        self.mcu.begin_phase("MC/WiFi init");
        self.mcu.wake_from_deep_sleep();
        self.mcu.wifi_init_inject();
        let report = self.transmit_and_sleep(medium, radio, msg);
        InjectReport { t_wake, ..report }
    }

    /// Transmit a prepared message now and drop into deep sleep
    /// (assumes the radio is already initialized).
    fn transmit_and_sleep(
        &mut self,
        medium: &mut Medium,
        radio: RadioId,
        msg: &Message,
    ) -> InjectReport {
        let t_wake = self.mcu.now();
        // Fig. 3b phase 2: the injection itself.
        self.mcu.begin_phase("Tx");
        let mac_seq = self.mac_seq;
        self.mac_seq = self.mac_seq.next_seq();
        let frame = build_wile_beacon(self.identity.mac, msg, mac_seq, self.mcu.now().as_us())
            .expect("payload bounded by caller");
        let beacon_len = frame.len();
        let airtime = Duration::from_us(frame_airtime_us(self.rate, beacon_len));
        let t_tx_start = self.mcu.now();
        let (on_air, t_tx_end) = self.mcu.transmit(airtime, self.power_dbm);
        medium.transmit(
            radio,
            on_air,
            TxParams {
                airtime,
                power_dbm: self.power_dbm,
                min_snr_db: self.rate.min_snr_db(),
            },
            frame,
        );
        self.mcu.wait_until(t_tx_end);

        // Fig. 3b phase 3: straight back to deep sleep.
        self.mcu.begin_phase("Sleep (after)");
        self.mcu.deep_sleep();
        self.mcu.end_phase();
        InjectReport {
            seq: msg.seq,
            beacon_len,
            t_wake,
            t_tx_start,
            t_tx_end,
            t_sleep: self.mcu.now(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wile_instrument::energy::energy_mj;
    use wile_radio::medium::RadioConfig;

    fn setup() -> (Medium, RadioId, Injector) {
        let mut medium = Medium::new(Default::default(), 3);
        let radio = medium.attach(RadioConfig::default());
        let inj = Injector::new(DeviceIdentity::new(7), Instant::ZERO);
        (medium, radio, inj)
    }

    #[test]
    fn injection_puts_exactly_one_frame_on_air() {
        let (mut medium, radio, mut inj) = setup();
        let report = inj.inject(&mut medium, radio, b"t=21.5C");
        assert_eq!(medium.tx_count(), 1);
        assert!(report.t_tx_end > report.t_tx_start);
        assert!(report.t_sleep > report.t_tx_end);
    }

    #[test]
    fn table1_wile_energy_emerges_from_tx_window() {
        // The headline number: 84 µJ per packet over the §5.4 window.
        let (mut medium, radio, mut inj) = setup();
        let model = inj.model();
        let report = inj.inject(&mut medium, radio, b"t=21.5C");
        let (from, to) = report.tx_window();
        let uj = energy_mj(inj.trace(), &model, from, to) * 1000.0;
        assert!((uj - 84.0).abs() < 13.0, "Wi-LE energy {uj:.1} µJ");
    }

    #[test]
    fn fig3b_init_is_shorter_than_fig3a_init() {
        let (mut medium, radio, mut inj) = setup();
        inj.inject(&mut medium, radio, b"x");
        let init = inj
            .trace()
            .phases()
            .iter()
            .find(|p| p.label == "MC/WiFi init")
            .unwrap();
        let dur = init.end.since(init.start).as_secs_f64();
        // Fig. 3b: visibly shorter than the 0.65 s of Fig. 3a.
        assert!(dur < 0.55, "init {dur}");
        assert!(dur > 0.3, "init {dur}");
    }

    #[test]
    fn whole_wake_cycle_energy_is_tens_of_mj() {
        // The honest ESP32 number the ASIC ablation improves on: the
        // full wake (boot+init+tx) costs ~25-90 mJ, dwarfing the 84 µJ
        // tx window — exactly why §5.4 argues for ASICs.
        let (mut medium, radio, mut inj) = setup();
        let model = inj.model();
        let report = inj.inject(&mut medium, radio, b"x");
        let (from, to) = report.active_window();
        let mj = energy_mj(inj.trace(), &model, from, to);
        assert!((20.0..=120.0).contains(&mj), "full-cycle {mj:.1} mJ");
    }

    #[test]
    fn sequence_numbers_advance_and_wrap() {
        let (mut medium, radio, mut inj) = setup();
        let a = inj.inject(&mut medium, radio, b"x");
        let b = inj.inject(&mut medium, radio, b"x");
        assert_eq!(a.seq, 0);
        assert_eq!(b.seq, 1);
        inj.seq = u16::MAX;
        let c = inj.inject(&mut medium, radio, b"x");
        assert_eq!(c.seq, u16::MAX);
        assert_eq!(inj.epoch, 1); // wrapped
    }

    #[test]
    fn sealed_injection_is_encrypted_on_air() {
        let mut medium = Medium::new(Default::default(), 3);
        let radio = medium.attach(RadioConfig::default());
        let mut inj = Injector::new(DeviceIdentity::with_key(7, b"s"), Instant::ZERO);
        inj.inject_sealed(&mut medium, radio, b"secret reading");
        let (_, _, _, bytes) = medium.transmissions().next().unwrap();
        // The plaintext must not appear in the frame.
        assert!(!bytes
            .windows(b"secret reading".len())
            .any(|w| w == b"secret reading"));
    }

    #[test]
    fn periodic_injections_have_quiet_gaps() {
        let (mut medium, radio, mut inj) = setup();
        let model = inj.model();
        let r1 = inj.inject(&mut medium, radio, b"x");
        inj.sleep_until(r1.t_sleep + Duration::from_secs(600));
        let _r2 = inj.inject(&mut medium, radio, b"x");
        // Energy in the 600 s gap is deep-sleep only: 2.5 µA·3.3 V·600 s ≈ 4.95 mJ.
        let gap_mj = energy_mj(
            inj.trace(),
            &model,
            r1.t_sleep,
            r1.t_sleep + Duration::from_secs(600),
        );
        assert!((gap_mj - 4.95).abs() < 0.05, "gap {gap_mj}");
    }

    #[test]
    fn seq_increments_mac_seq_too() {
        let (mut medium, radio, mut inj) = setup();
        inj.inject(&mut medium, radio, b"x");
        inj.inject(&mut medium, radio, b"x");
        let frames: Vec<_> = medium.transmissions().collect();
        let s0 = wile_dot11::mac::MgmtHeader::new_checked(&frames[0].3[..])
            .unwrap()
            .seq_control()
            .seq();
        let s1 = wile_dot11::mac::MgmtHeader::new_checked(&frames[1].3[..])
            .unwrap()
            .seq_control()
            .seq();
        assert_eq!(s1, s0 + 1);
    }
}
