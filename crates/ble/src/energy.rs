//! CC2541 per-phase energy model.
//!
//! The paper takes its BLE numbers from a TI report rather than its own
//! board: "we use a CC2541 which is an ultra-low power BLE module as our
//! reference for power consumption. Table 1 presents the power
//! consumption results from a report published by the chipset's
//! manufacturer" (§5.4, citing TI swra347a). That application note
//! decomposes one radio event into phases — wake-up, pre-processing,
//! pre-radio setup, TX, post-processing — each with its own current.
//! This module reproduces that decomposition, calibrated so a default
//! advertising event (3 channels, ~14-byte payload) integrates to the
//! paper's 71 µJ per packet, and sleep sits at the paper's 1.1 µA.

use crate::airtime::adv_airtime_for_data;
use wile_radio::time::Duration;

/// One phase of a BLE event: duration and current.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Phase {
    /// Label from the TI report.
    pub label: &'static str,
    /// Phase duration.
    pub(crate) duration: Duration,
    /// Current draw, mA.
    pub(crate) current_ma: f64,
}

impl Phase {
    /// Charge consumed in this phase, microcoulombs.
    pub(crate) fn charge_uc(&self) -> f64 {
        self.current_ma * self.duration.as_secs_f64() * 1e3
    }
}

/// The phase list of one complete BLE event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventPhases {
    /// Ordered phases.
    pub(crate) phases: Vec<Phase>,
    /// Supply voltage, volts.
    pub(crate) supply_v: f64,
}

impl EventPhases {
    /// Total event duration.
    pub fn duration(&self) -> Duration {
        self.phases.iter().map(|p| p.duration).sum()
    }

    /// Total charge, microcoulombs.
    pub(crate) fn charge_uc(&self) -> f64 {
        self.phases.iter().map(|p| p.charge_uc()).sum()
    }

    /// Total energy, microjoules.
    pub fn energy_uj(&self) -> f64 {
        self.charge_uc() * self.supply_v
    }

    /// Mean current over the event, mA.
    pub fn mean_current_ma(&self) -> f64 {
        let d = self.duration().as_secs_f64();
        if d > 0.0 {
            self.charge_uc() * 1e-3 / d
        } else {
            0.0
        }
    }
}

/// CC2541 calibration.
#[derive(Debug, Clone, Copy)]
pub struct Cc2541Model {
    /// Sleep current with the 32 kHz timer running, mA
    /// (Table 1 idle column: 1.1 µA).
    pub sleep_ma: f64,
    /// MCU wake-up phase current, mA.
    pub(crate) wakeup_ma: f64,
    /// Wake-up phase duration.
    pub(crate) wakeup: Duration,
    /// Stack pre-processing current, mA.
    pub(crate) preproc_ma: f64,
    /// Pre-processing duration.
    pub(crate) preproc: Duration,
    /// Radio setup (per channel) current, mA.
    pub(crate) radio_prep_ma: f64,
    /// Radio setup duration per channel.
    pub(crate) radio_prep: Duration,
    /// TX current at 0 dBm, mA.
    pub(crate) tx_ma: f64,
    /// Post-processing current, mA.
    pub(crate) postproc_ma: f64,
    /// Post-processing duration.
    pub(crate) postproc: Duration,
    /// Supply voltage, volts (TI measures at 3.0 V).
    pub supply_v: f64,
}

impl Default for Cc2541Model {
    fn default() -> Self {
        Cc2541Model {
            sleep_ma: 0.0011,
            wakeup_ma: 6.0,
            wakeup: Duration::from_us(400),
            preproc_ma: 7.4,
            preproc: Duration::from_us(340),
            radio_prep_ma: 11.0,
            radio_prep: Duration::from_us(130),
            tx_ma: 18.2,
            postproc_ma: 7.4,
            postproc: Duration::from_us(160),
            supply_v: 3.0,
        }
    }
}

impl Cc2541Model {
    /// The phases of one advertising event transmitting `adv_data_len`
    /// payload bytes on `channels` advertising channels.
    pub fn advertising_event(&self, adv_data_len: usize, channels: usize) -> EventPhases {
        assert!((1..=3).contains(&channels));
        let mut phases = vec![
            Phase {
                label: "wake-up",
                duration: self.wakeup,
                current_ma: self.wakeup_ma,
            },
            Phase {
                label: "pre-processing",
                duration: self.preproc,
                current_ma: self.preproc_ma,
            },
        ];
        let tx_air = adv_airtime_for_data(adv_data_len);
        for _ in 0..channels {
            phases.push(Phase {
                label: "radio setup",
                duration: self.radio_prep,
                current_ma: self.radio_prep_ma,
            });
            phases.push(Phase {
                label: "tx",
                duration: tx_air,
                current_ma: self.tx_ma,
            });
        }
        phases.push(Phase {
            label: "post-processing",
            duration: self.postproc,
            current_ma: self.postproc_ma,
        });
        EventPhases {
            phases,
            supply_v: self.supply_v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_ble_energy_emerges() {
        // Table 1: "BLE … 71 µJ" per packet. The default event: 3
        // channels, 14-byte sensor payload.
        let uj = Cc2541Model::default().advertising_event(14, 3).energy_uj();
        assert!((uj - 71.0).abs() < 6.0, "got {uj:.1} µJ");
    }

    #[test]
    fn table1_ble_idle_current() {
        let m = Cc2541Model::default();
        assert!((m.sleep_ma - 0.0011).abs() < 1e-9);
    }

    #[test]
    fn fewer_channels_less_energy() {
        let m = Cc2541Model::default();
        let one = m.advertising_event(14, 1).energy_uj();
        let three = m.advertising_event(14, 3).energy_uj();
        assert!(one < three);
        assert!(three < one * 3.0); // fixed overheads amortize
    }

    #[test]
    fn longer_payload_more_energy() {
        let m = Cc2541Model::default();
        assert!(m.advertising_event(31, 3).energy_uj() > m.advertising_event(0, 3).energy_uj());
    }

    #[test]
    fn event_duration_is_milliseconds() {
        let d = Cc2541Model::default().advertising_event(14, 3).duration();
        assert!(d > Duration::from_ms(1) && d < Duration::from_ms(4), "{d}");
    }

    #[test]
    fn mean_current_is_between_extremes() {
        let e = Cc2541Model::default().advertising_event(14, 3);
        let mean = e.mean_current_ma();
        assert!(mean > 6.0 && mean < 18.2, "{mean}");
    }

    #[test]
    fn phase_charges_sum() {
        let e = Cc2541Model::default().advertising_event(14, 3);
        let sum: f64 = e.phases.iter().map(|p| p.charge_uc()).sum();
        assert!((sum - e.charge_uc()).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_channels_rejected() {
        Cc2541Model::default().advertising_event(14, 0);
    }
}
