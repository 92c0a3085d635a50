//! The BLE reference scenario (§5.3): "the BLE chip is in the slave
//! mode, and periodically transmits a data packet to another BLE device
//! … The microcontroller goes into the deep sleep mode between the
//! transmissions."
//!
//! Energy comes from the CC2541 per-phase model (`wile-ble`), exactly
//! as the paper takes it from TI's report rather than measuring its own
//! ESP32's "inefficient" BLE. The frames are nonetheless real: the
//! scenario also pushes genuine advertising PDUs across the simulated
//! medium to a scanning master and checks delivery.

use crate::scenario::ScenarioResult;
use wile_ble::advertiser::Advertiser;
use wile_ble::energy::Cc2541Model;
use wile_ble::pdu::{AdvPdu, BleAddr};
use wile_radio::medium::{Medium, RadioConfig, RadioId, TxParams};
use wile_radio::time::{Duration, Instant};

/// Default sensor payload length carried per advertising event —
/// matched to the calibration of `wile-ble`'s energy model.
pub const DEFAULT_ADV_DATA_LEN: usize = 14;

/// The Table 1 BLE row.
pub fn table1_row() -> ScenarioResult {
    let model = Cc2541Model::default();
    let event = model.advertising_event(DEFAULT_ADV_DATA_LEN, 3);
    ScenarioResult {
        name: "BLE",
        energy_per_packet_mj: event.energy_uj() / 1000.0,
        idle_current_ma: model.sleep_ma,
        supply_v: model.supply_v,
        ttx_s: event.duration().as_secs_f64(),
    }
}

/// Result of pushing real advertising events across the medium.
#[derive(Debug)]
pub struct BleAirRun {
    /// Events transmitted.
    pub events: usize,
    /// PDUs that decoded correctly at the scanner (the scanner dwells
    /// on one advertising channel at a time, as real scanners do, so at
    /// most one PDU per event counts).
    pub events_heard: usize,
}

/// Transmit `events` advertising events from a sensor to a scanner
/// `distance_m` away; the scanner round-robins channels 37/38/39.
pub fn run_over_air(events: usize, distance_m: f64) -> BleAirRun {
    let mut medium = Medium::new(Default::default(), 21);
    // One logical scanner; BLE channels are modelled by tagging the
    // radio channel field with the advertising channel index.
    let scanner_radios: Vec<RadioId> = (0..3)
        .map(|i| {
            medium.attach(RadioConfig {
                position_m: (distance_m, 0.0),
                channel: 37 + i,
                ..Default::default()
            })
        })
        .collect();
    let sensor_radios: Vec<RadioId> = (0..3)
        .map(|i| {
            medium.attach(RadioConfig {
                position_m: (0.0, 0.0),
                channel: 37 + i,
                ..Default::default()
            })
        })
        .collect();

    let pdu = AdvPdu::nonconn(BleAddr::random_static(7), &[0xA5; DEFAULT_ADV_DATA_LEN]);
    let mut adv = Advertiser::new(Instant::from_ms(10), Duration::from_ms(100), 77);
    let mut horizon = Instant::ZERO;
    for _ in 0..events {
        for tx in adv.next_event(&pdu) {
            let radio = sensor_radios[(tx.channel - 37) as usize];
            let airtime = Duration::from_us(tx.air_bytes.len() as u64 * 8);
            let end = medium.transmit(
                radio,
                tx.at,
                TxParams {
                    airtime,
                    power_dbm: 0.0,
                    min_snr_db: 6.0,
                },
                tx.air_bytes,
            );
            horizon = horizon.max(end);
        }
    }

    // The scanner dwells on one channel per event (round-robin).
    let mut events_heard = 0;
    let mut per_channel: Vec<Vec<_>> = scanner_radios
        .iter()
        .map(|&r| medium.take_inbox(r, horizon + Duration::from_ms(1)))
        .collect();
    for e in 0..events {
        let ch = e % 3;
        let heard = per_channel[ch]
            .iter()
            .position(|f| AdvPdu::from_air_bytes(&f.bytes, 37 + ch as u8).is_some());
        if let Some(idx) = heard {
            per_channel[ch].remove(idx);
            events_heard += 1;
        }
    }
    BleAirRun {
        events,
        events_heard,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_row_matches_paper() {
        let row = table1_row();
        // Paper: 71 µJ, 1.1 µA idle.
        assert!(
            (row.energy_per_packet_uj() - 71.0).abs() < 8.0,
            "{}",
            row.energy_per_packet_uj()
        );
        assert!((row.idle_current_ma - 0.0011).abs() < 1e-9);
        // An event is a couple of milliseconds.
        assert!(row.ttx_s > 1e-3 && row.ttx_s < 5e-3);
    }

    #[test]
    fn ble_beats_wifi_by_three_orders_on_energy() {
        // §5.4: "the energy per packet for BLE is almost three orders of
        // magnitude lower than WiFi-PS."
        let ble = table1_row();
        let ps = crate::wifi_ps::table1_row();
        let ratio = ps.energy_per_packet_mj / ble.energy_per_packet_mj;
        assert!((150.0..=600.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn real_pdus_cross_the_air_at_close_range() {
        let run = run_over_air(12, 3.0);
        assert_eq!(run.events, 12);
        assert!(run.events_heard >= 11, "heard {}", run.events_heard);
    }

    #[test]
    fn range_collapses_far_away() {
        let run = run_over_air(12, 500.0);
        assert_eq!(run.events_heard, 0);
    }

    #[test]
    fn coin_cell_lifetime_exceeds_a_year_at_10min_interval() {
        // §5.4: "BLE modules can run on a small button battery for over
        // a year."
        let ble = table1_row();
        let avg_ma = ble.average_current_ma(600.0);
        let battery = wile_device::battery::Battery::cr2032();
        assert!(battery.lifetime_days(avg_ma) > 365.0);
    }
}
