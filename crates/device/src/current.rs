//! Mapping from power state to current draw.

use crate::power::PowerState;

/// Per-state current draw, milliamps. Construct via a chip preset
/// ([`crate::esp32::esp32_current_model`]) or literal struct syntax for
/// hypothetical hardware (the "ASIC implementation" ablation builds one
/// with a faster, cheaper boot).
#[derive(Debug, Clone, Copy)]
pub struct CurrentModel {
    /// Deep sleep, mA.
    pub(crate) deep_sleep_ma: f64,
    /// Light sleep, mA.
    pub(crate) light_sleep_ma: f64,
    /// Automatic light sleep with WiFi association held, mA (average).
    pub(crate) auto_light_sleep_ma: f64,
    /// Active CPU at the reference clock, mA.
    pub(crate) active_ma: f64,
    /// Reference CPU clock for `active_ma`, MHz.
    pub(crate) active_ref_mhz: u32,
    /// Additional slope: mA per MHz above/below the reference clock.
    pub(crate) active_ma_per_mhz: f64,
    /// CPU + radio in listen, mA.
    pub(crate) listen_ma: f64,
    /// DFS + automatic light sleep between closely spaced protocol
    /// messages, radio armed, mA (Fig. 3a DHCP/ARP baseline).
    pub(crate) dfs_wait_ma: f64,
    /// CPU + radio receiving, mA.
    pub(crate) rx_ma: f64,
    /// CPU + radio transmitting at 0 dBm, mA.
    pub(crate) tx_ma_at_0dbm: f64,
    /// Additional mA per dB of transmit power above 0 dBm (PA slope;
    /// clamped at 0 dBm downwards — low-power PAs flatten out).
    pub(crate) tx_ma_per_dbm: f64,
    /// Supply voltage, volts (the paper feeds the board 3.3 V).
    pub supply_v: f64,
}

impl CurrentModel {
    /// Current draw in `state`, mA.
    pub fn current_ma(&self, state: PowerState) -> f64 {
        match state {
            PowerState::Off => 0.0,
            PowerState::DeepSleep => self.deep_sleep_ma,
            PowerState::LightSleep => self.light_sleep_ma,
            PowerState::AutoLightSleep => self.auto_light_sleep_ma,
            PowerState::Active { mhz } => {
                let delta = mhz as f64 - self.active_ref_mhz as f64;
                (self.active_ma + delta * self.active_ma_per_mhz).max(0.0)
            }
            PowerState::RadioListen => self.listen_ma,
            PowerState::DfsWait => self.dfs_wait_ma,
            PowerState::RadioRx => self.rx_ma,
            PowerState::RadioTx { power_dbm } => {
                self.tx_ma_at_0dbm + power_dbm.max(0.0) * self.tx_ma_per_dbm
            }
        }
    }

    /// Power draw in `state`, milliwatts.
    pub fn power_mw(&self, state: PowerState) -> f64 {
        self.current_ma(state) * self.supply_v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::esp32::esp32_current_model;

    #[test]
    fn esp32_paper_constants() {
        let m = esp32_current_model();
        // §5.1: "current draw in deep sleep mode is as low as 2.5 µA".
        assert!((m.current_ma(PowerState::DeepSleep) - 0.0025).abs() < 1e-9);
        // §5.1: light sleep "as low as 0.8 mA".
        assert!((m.current_ma(PowerState::LightSleep) - 0.8).abs() < 1e-9);
        // §5.1: automatic light sleep "about 5 mA".
        assert!((m.current_ma(PowerState::AutoLightSleep) - 4.5).abs() < 0.6);
    }

    #[test]
    fn dfs_scales_active_current() {
        let m = esp32_current_model();
        let slow = m.current_ma(PowerState::Active { mhz: 80 });
        let fast = m.current_ma(PowerState::Active { mhz: 240 });
        assert!(fast > slow);
        assert!(m.current_ma(PowerState::Active { mhz: 0 }) >= 0.0);
    }

    #[test]
    fn tx_power_scales_current_above_0dbm_only() {
        let m = esp32_current_model();
        let at0 = m.current_ma(PowerState::RadioTx { power_dbm: 0.0 });
        let at20 = m.current_ma(PowerState::RadioTx { power_dbm: 20.0 });
        let atm10 = m.current_ma(PowerState::RadioTx { power_dbm: -10.0 });
        assert!(at20 > at0);
        assert_eq!(atm10, at0);
    }

    #[test]
    fn off_draws_nothing() {
        assert_eq!(esp32_current_model().current_ma(PowerState::Off), 0.0);
    }

    #[test]
    fn power_is_current_times_voltage() {
        let m = esp32_current_model();
        let s = PowerState::RadioListen;
        assert!((m.power_mw(s) - m.current_ma(s) * 3.3).abs() < 1e-9);
    }
}
