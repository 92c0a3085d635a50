//! The device façade scenarios script against: owns a clock position, a
//! current model, timings and the state trace.

use crate::current::CurrentModel;
use crate::esp32::{esp32_current_model, esp32_timing, Esp32Timing};
use crate::power::PowerState;
use crate::trace::StateTrace;
use wile_radio::time::{Duration, Instant};

/// A microcontroller + radio module being power-traced.
///
/// `Mcu` does not simulate instruction execution; it advances a local
/// timeline through calibrated phase durations, recording each state
/// into its [`StateTrace`]. That matches the paper's measurement
/// granularity (a multimeter cannot see instructions either).
#[derive(Debug, Clone)]
pub struct Mcu {
    now: Instant,
    model: CurrentModel,
    timing: Esp32Timing,
    trace: StateTrace,
    cpu_mhz: u32,
}

impl Mcu {
    /// An ESP32-calibrated device starting at `start`, powered off.
    pub fn esp32(start: Instant) -> Self {
        Mcu::new(start, esp32_current_model(), esp32_timing())
    }

    /// A device with explicit calibration (used by the ASIC ablation).
    pub fn new(start: Instant, model: CurrentModel, timing: Esp32Timing) -> Self {
        let mut trace = StateTrace::new();
        trace.push(start, PowerState::Off);
        Mcu {
            now: start,
            model,
            timing,
            trace,
            cpu_mhz: 80,
        }
    }

    /// Current local time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// The current model in use.
    pub fn model(&self) -> &CurrentModel {
        &self.model
    }

    /// The accumulated trace.
    pub fn trace(&self) -> &StateTrace {
        &self.trace
    }

    /// Consume the device, returning its trace.
    pub fn into_trace(self) -> StateTrace {
        self.trace
    }

    /// Set the CPU clock used for subsequent active states (the paper's
    /// DFS: "we set the default frequency to 80 MHz").
    pub fn set_cpu_mhz(&mut self, mhz: u32) {
        self.cpu_mhz = mhz;
    }

    /// Enter `state` now.
    pub fn set_state(&mut self, state: PowerState) {
        self.trace.push(self.now, state);
    }

    /// Enter `state` and stay in it for `d`.
    pub fn stay(&mut self, state: PowerState, d: Duration) {
        self.set_state(state);
        self.now += d;
    }

    /// Remain in the present state until `at` (no-op if `at` is past).
    pub fn wait_until(&mut self, at: Instant) {
        self.now = self.now.max(at);
    }

    /// Annotate the start of a figure phase.
    pub fn begin_phase(&mut self, label: &str) {
        self.trace.begin_phase(self.now, label);
    }

    /// Close the open figure phase.
    pub fn end_phase(&mut self) {
        self.trace.end_phase(self.now);
    }

    // ----- calibrated composite sequences -----

    /// Deep-sleep wake: boot ROM, flash read, app init. CPU active at the
    /// configured clock throughout.
    pub fn wake_from_deep_sleep(&mut self) {
        self.stay(
            PowerState::Active { mhz: self.cpu_mhz },
            self.timing.boot_from_deep_sleep,
        );
    }

    /// WiFi stack bring-up for *station* use (connect path, Fig. 3a).
    pub fn wifi_init_station(&mut self) {
        self.stay(
            PowerState::Active { mhz: self.cpu_mhz },
            self.timing.wifi_init_station,
        );
    }

    /// WiFi bring-up for *injection only* (Wi-LE path, Fig. 3b).
    pub fn wifi_init_inject(&mut self) {
        self.stay(
            PowerState::Active { mhz: self.cpu_mhz },
            self.timing.wifi_init_inject,
        );
    }

    /// Transmit: PA ramp then `airtime` on the air at `power_dbm`.
    /// Returns `(tx_start, tx_end)` — `tx_start` is when energy starts
    /// radiating (after the ramp).
    pub fn transmit(&mut self, airtime: Duration, power_dbm: f64) -> (Instant, Instant) {
        self.stay(PowerState::RadioTx { power_dbm }, self.timing.tx_ramp);
        let start = self.now;
        self.set_state(PowerState::RadioTx { power_dbm });
        self.now += airtime;
        (start, self.now)
    }

    /// Listen on the channel for `d` (waiting for a response).
    pub fn listen(&mut self, d: Duration) {
        self.stay(PowerState::RadioListen, d);
    }

    /// Wait for a protocol response with DFS + automatic light sleep
    /// engaged (the low-current DHCP/ARP wait of Fig. 3a).
    pub fn dfs_wait(&mut self, d: Duration) {
        self.stay(PowerState::DfsWait, d);
    }

    /// Receive a frame of `airtime`.
    pub fn receive(&mut self, airtime: Duration) {
        self.stay(PowerState::RadioRx, airtime);
    }

    /// Enter deep sleep (with the calibrated entry cost) and stay there.
    pub fn deep_sleep(&mut self) {
        self.stay(
            PowerState::Active { mhz: self.cpu_mhz },
            self.timing.sleep_entry,
        );
        self.set_state(PowerState::DeepSleep);
    }

    /// Enter the 802.11 power-save idle state.
    pub fn auto_light_sleep(&mut self) {
        self.set_state(PowerState::AutoLightSleep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_sequence_advances_time() {
        let mut m = Mcu::esp32(Instant::from_ms(200));
        m.wake_from_deep_sleep();
        m.wifi_init_station();
        // Fig. 3a: init ends at ~0.85 s when wake starts at 0.2 s.
        assert_eq!(m.now(), Instant::from_ms(850));
    }

    #[test]
    fn transmit_reports_on_air_window() {
        let mut m = Mcu::esp32(Instant::ZERO);
        m.wake_from_deep_sleep();
        let (s, e) = m.transmit(Duration::from_us(46), 0.0);
        assert_eq!(e.since(s), Duration::from_us(46));
        // Ramp precedes the on-air window.
        assert_eq!(s.since(Instant::from_ms(350)), Duration::from_us(85));
    }

    #[test]
    fn trace_records_states_in_order() {
        let mut m = Mcu::esp32(Instant::ZERO);
        m.wake_from_deep_sleep();
        m.transmit(Duration::from_us(50), 0.0);
        m.deep_sleep();
        let states: Vec<_> = m
            .trace()
            .transitions()
            .iter()
            .map(|&(_, s)| s.label())
            .collect();
        assert_eq!(states, ["off", "active", "tx", "active", "deep-sleep"]);
    }

    #[test]
    fn wait_until_never_rewinds() {
        let mut m = Mcu::esp32(Instant::from_ms(100));
        m.wait_until(Instant::from_ms(50));
        assert_eq!(m.now(), Instant::from_ms(100));
        m.wait_until(Instant::from_ms(500));
        assert_eq!(m.now(), Instant::from_ms(500));
    }

    #[test]
    fn phases_attach_to_trace() {
        let mut m = Mcu::esp32(Instant::ZERO);
        m.begin_phase("MC/WiFi init");
        m.wake_from_deep_sleep();
        m.begin_phase("Tx");
        m.transmit(Duration::from_us(46), 0.0);
        m.end_phase();
        let ph = m.trace().phases();
        assert_eq!(ph.len(), 2);
        assert_eq!(ph[0].label, "MC/WiFi init");
        assert!(ph[0].end <= ph[1].start);
    }

    #[test]
    fn dfs_changes_active_state() {
        let mut m = Mcu::esp32(Instant::ZERO);
        m.set_cpu_mhz(240);
        m.wake_from_deep_sleep();
        let (_, s) = m.trace().transitions()[1];
        assert_eq!(s, PowerState::Active { mhz: 240 });
    }
}
