//! WiFi Duty Cycle (WiFi-DC, §5.3): "the WiFi chip disconnects from the
//! AP after transmitting its data and goes to sleep … The WiFi device
//! has to re-associate with the AP before its next transmission."

use crate::scenario::ScenarioResult;
use wile_device::esp32::SUPPLY_V;
use wile_device::{Mcu, PowerState};
use wile_dot11::MacAddr;
use wile_instrument::energy::energy_mj;
use wile_netstack::ap::AccessPoint;
use wile_netstack::connect::{run_connection, ConnectConfig, ConnectionOutcome};
use wile_netstack::sta::Station;
use wile_radio::medium::{Medium, RadioConfig, RadioId};
use wile_radio::time::Instant;

/// Everything one WiFi-DC run produces.
pub struct WifiDcRun {
    /// The connection-level outcome (frames, phases).
    pub outcome: ConnectionOutcome,
    /// The device model used (for sampling/integration).
    pub model: wile_device::CurrentModel,
    /// The medium, in case the caller wants a pcap.
    pub medium: Medium,
    /// The client radio (for inbox inspection).
    pub sta_radio: RadioId,
}

/// Run one wake→associate→transmit→sleep cycle on a fresh medium.
pub fn run(cfg: &ConnectConfig) -> WifiDcRun {
    let mut medium = Medium::new(Default::default(), 42);
    let sta_radio = medium.attach(RadioConfig {
        position_m: (0.0, 0.0),
        ..Default::default()
    });
    let ap_radio = medium.attach(RadioConfig {
        position_m: (1.0, 0.0),
        ..Default::default()
    });
    let ap_mac = MacAddr::new([0xAA, 0x1B, 0x2C, 0, 0, 1]);
    let sta_mac = MacAddr::new([0x02, 0, 0, 0, 0, 0x0D]);
    let mut ap = AccessPoint::new(b"HomeNet", "hunter22", ap_mac, 6);
    let mut sta = Station::new(sta_mac, b"HomeNet", "hunter22", ap_mac, 0xD00D);
    let mut mcu = Mcu::esp32(Instant::ZERO);
    let model = *mcu.model();
    let outcome = run_connection(
        &mut medium,
        sta_radio,
        ap_radio,
        &mut ap,
        &mut sta,
        &mut mcu,
        cfg,
    );
    WifiDcRun {
        outcome,
        model,
        medium,
        sta_radio,
    }
}

/// Energy accounting of a run, in Table 1 terms.
pub fn measure(run: &WifiDcRun) -> ScenarioResult {
    let (from, to) = run.outcome.active_window();
    ScenarioResult {
        name: "WiFi-DC",
        energy_per_packet_mj: energy_mj(&run.outcome.trace, &run.model, from, to),
        // Table 1: idle = deep sleep, 2.5 µA.
        idle_current_ma: run.model.current_ma(PowerState::DeepSleep),
        supply_v: SUPPLY_V,
        ttx_s: to.since(from).as_secs_f64(),
    }
}

/// The Table 1 WiFi-DC row with default configuration.
pub fn table1_row() -> ScenarioResult {
    measure(&run(&ConnectConfig::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_row_matches_paper() {
        let row = table1_row();
        // Paper: 238.2 mJ, 2.5 µA idle.
        assert!(
            (row.energy_per_packet_mj - 238.2).abs() < 48.0,
            "{}",
            row.energy_per_packet_mj
        );
        assert!((row.idle_current_ma - 0.0025).abs() < 1e-9);
        // Active window ≈ 1.2 s of protocol after the 0.2 s sleep lead-in.
        assert!((1.0..=1.6).contains(&row.ttx_s), "{}", row.ttx_s);
    }

    #[test]
    fn run_is_deterministic() {
        let a = table1_row();
        let b = table1_row();
        assert_eq!(a, b);
    }

    #[test]
    fn connection_succeeded() {
        let r = run(&ConnectConfig::default());
        assert!(r.outcome.connected);
        assert!(r.medium.tx_count() >= 30);
    }
}
