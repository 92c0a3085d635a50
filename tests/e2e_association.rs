//! Integration: the WiFi-side baseline — full association over the
//! simulated medium with real WPA2 keys, DHCP leases and ARP, plus the
//! 802.11 power-save schedule the WiFi-PS scenario leans on.

use wile_dot11::mac::MacAddr;
use wile_netstack::ap::AccessPoint;
use wile_netstack::connect::{run_connection, ConnectConfig};
use wile_netstack::powersave::PsSchedule;
use wile_netstack::sta::Station;
use wile_radio::medium::{Medium, RadioConfig};
use wile_radio::pcap;
use wile_radio::time::Instant;

fn fresh() -> (
    Medium,
    wile_radio::RadioId,
    wile_radio::RadioId,
    AccessPoint,
    Station,
    wile_device::Mcu,
) {
    let mut medium = Medium::new(Default::default(), 50);
    let sta_radio = medium.attach(RadioConfig::default());
    let ap_radio = medium.attach(RadioConfig {
        position_m: (1.0, 0.0),
        ..Default::default()
    });
    let ap_mac = MacAddr::new([0xAA, 0, 0, 0, 0, 1]);
    let sta_mac = MacAddr::new([2, 0, 0, 0, 0, 5]);
    let ap = AccessPoint::new(b"HomeNet", "hunter22", ap_mac, 6);
    let sta = Station::new(sta_mac, b"HomeNet", "hunter22", ap_mac, 0xFEED);
    let mcu = wile_device::Mcu::esp32(Instant::ZERO);
    (medium, sta_radio, ap_radio, ap, sta, mcu)
}

#[test]
fn association_produces_matching_keys_and_lease() {
    let (mut medium, sr, ar, mut ap, mut sta, mut mcu) = fresh();
    let out = run_connection(
        &mut medium,
        sr,
        ar,
        &mut ap,
        &mut sta,
        &mut mcu,
        &ConnectConfig::default(),
    );
    assert!(out.connected);
    assert!(ap.handshake_complete(&sta.mac));
    assert_eq!(ap.lease_of(&sta.mac), sta.ip);
    assert_eq!(sta.gateway_ip, Some(ap.ip));
    assert_eq!(sta.gateway_mac, Some(ap.mac));
    assert_eq!(ap.aid_of(&sta.mac), sta.aid);
}

#[test]
fn every_frame_on_air_has_a_valid_fcs() {
    let (mut medium, sr, ar, mut ap, mut sta, mut mcu) = fresh();
    run_connection(
        &mut medium,
        sr,
        ar,
        &mut ap,
        &mut sta,
        &mut mcu,
        &ConnectConfig::default(),
    );
    let mut n = 0;
    for (_, _, _, bytes) in medium.transmissions() {
        assert!(wile_dot11::fcs::check_fcs(&bytes), "frame {n} bad FCS");
        n += 1;
    }
    assert!(n >= 30);
}

#[test]
fn pcap_dump_of_the_association_is_wellformed() {
    let (mut medium, sr, ar, mut ap, mut sta, mut mcu) = fresh();
    run_connection(
        &mut medium,
        sr,
        ar,
        &mut ap,
        &mut sta,
        &mut mcu,
        &ConnectConfig::default(),
    );
    let dump = pcap::dump_medium(&medium);
    // Global header + at least 30 records.
    assert!(dump.len() > 24 + 30 * 16);
    assert_eq!(&dump[0..4], &0xA1B2_C3D4u32.to_le_bytes());
    // Walk the records to the end: lengths must chain exactly.
    let mut off = 24;
    let mut records = 0;
    while off < dump.len() {
        let caplen = u32::from_le_bytes(dump[off + 8..off + 12].try_into().unwrap()) as usize;
        off += 16 + caplen;
        records += 1;
    }
    assert_eq!(off, dump.len());
    assert_eq!(records as u64, medium.tx_count());
}

#[test]
fn ps_schedule_and_tim_interact_consistently() {
    let s = PsSchedule::paper_default();
    // Over ten minutes the paper's client wakes ~1953 times; each wake
    // that finds an empty TIM goes straight back to sleep.
    let wakes = s.wakes_in(wile_radio::Duration::from_secs(600));
    assert_eq!(wakes, 1953);
    let empty = wile_dot11::ie::Tim::empty(0, 3);
    assert!(!empty.traffic_for(1));
}

#[test]
fn two_stations_get_distinct_aids_and_leases() {
    let mut medium = Medium::new(Default::default(), 51);
    let ap_mac = MacAddr::new([0xAA, 0, 0, 0, 0, 1]);
    let mut ap = AccessPoint::new(b"HomeNet", "hunter22", ap_mac, 6);

    let mut results = Vec::new();
    for (i, seed) in [(0u8, 0x111u32), (1, 0x222)] {
        let sta_radio = medium.attach(RadioConfig {
            position_m: (0.0, i as f64),
            ..Default::default()
        });
        let ap_radio = medium.attach(RadioConfig {
            position_m: (1.0, 0.0),
            ..Default::default()
        });
        let sta_mac = MacAddr::new([2, 0, 0, 0, 0, 10 + i]);
        let mut sta = Station::new(sta_mac, b"HomeNet", "hunter22", ap_mac, seed);
        // Each station starts after the previous one finished (time
        // order on the shared medium).
        let start = Instant::from_secs(i as u64 * 10);
        let mut mcu = wile_device::Mcu::esp32(start);
        let out = run_connection(
            &mut medium,
            sta_radio,
            ap_radio,
            &mut ap,
            &mut sta,
            &mut mcu,
            &ConnectConfig::default(),
        );
        assert!(out.connected, "station {i}");
        results.push((sta.aid.unwrap(), sta.ip.unwrap()));
    }
    assert_ne!(results[0].0, results[1].0, "AIDs must differ");
    assert_ne!(results[0].1, results[1].1, "leases must differ");
}
