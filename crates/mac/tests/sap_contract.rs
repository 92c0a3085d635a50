//! Property tests for each backend's confirm contract (802.15.4
//! service discipline):
//!
//! 1. **Exactly one confirm per request, FIFO per device** — every
//!    primitive a backend serves answers with exactly one confirm, and
//!    the per-device handle counter advances by exactly one per
//!    request (refused ones included — a request is never silently
//!    dropped), for arbitrary interleavings of primitives across
//!    devices.
//! 2. **Indications never outnumber medium hears** — the gateway face
//!    (`GatewayIngest::drain_indications`) lifts deliveries out of the
//!    medium one-to-one; under arbitrary fault timelines it may only
//!    ever filter, and per-device sequence order survives the lift.
//!
//! Loss decisions in the medium are hashed per (transmission,
//! receiver), so property 2 compares against the *same* gateway
//! radio's raw inbox in an identically-seeded twin world rather than a
//! co-located "ear" radio (which would roll its own losses).

use proptest::prelude::*;
use wile::inject::Injector;
use wile::monitor::Gateway;
use wile::registry::DeviceIdentity;
use wile::twoway::RxWindow;
use wile_ble::advertiser::Advertiser;
use wile_dot11::MacAddr;
use wile_mac::ble::BLE_DATA_CAPACITY;
use wile_mac::{
    AirCtx, BleMac, MacStatus, McpsDataRequest, MlmeAssociateRequest, MlmeWakeRequest, WifiMac,
    WileMac,
};
use wile_netstack::ap::AccessPoint;
use wile_netstack::connect::ConnectConfig;
use wile_radio::medium::{Medium, RadioConfig, RadioId};
use wile_radio::plan::{Disturbance, FaultPhase, FaultPlan, FaultTimeline};
use wile_radio::time::{Duration, Instant};
use wile_sim::ingest::GatewayIngest;
use wile_telemetry::Telemetry;

/// One scripted primitive against a Wi-LE device.
#[derive(Debug, Clone, Copy)]
enum Op {
    Plain,
    Windowed,
    Repeat,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![Just(Op::Plain), Just(Op::Windowed), Just(Op::Repeat),]
}

const WINDOW: RxWindow = RxWindow {
    offset_us: 300,
    length_us: 2_000,
};

const DEVICES: usize = 3;

proptest! {
    /// Wi-LE: arbitrary interleavings of data (plain,
    /// windowed, repeat) and MLME-WAKE across three devices. Every
    /// MCPS-DATA.confirm carries handle = (that device's request count
    /// so far), and a closing probe per device proves each MLME-WAKE
    /// consumed exactly one handle too.
    #[test]
    fn wile_every_request_confirms_fifo_per_device(
        ops in proptest::collection::vec((0u32..DEVICES as u32, op_strategy(), 1u64..400), 1..40),
        seed in 0u64..1_000,
    ) {
        let mut medium = Medium::new(Default::default(), seed);
        let mut tel = Telemetry::off();
        let mut mac = WileMac::new();
        for dev in 0..DEVICES as u32 {
            let radio = medium.attach(RadioConfig {
                position_m: (dev as f64, 0.0),
                ..Default::default()
            });
            mac.push_injector(
                Injector::new(DeviceIdentity::new(dev + 1), Instant::ZERO),
                radio,
            );
        }

        // expect[d] = primitives issued to device d so far; the
        // contract says the next confirm's handle is expect[d] + 1.
        let mut expect = [0u64; DEVICES];
        let mut last_seq: [Option<u16>; DEVICES] = [None; DEVICES];
        // The medium requires globally non-decreasing transmit starts
        // and the injector's wake→tx latency differs per exchange
        // shape, so the driver honours the same air-lease discipline
        // the kernel scenarios do: never wake before the previous
        // exchange fully finished.
        let mut floor = Instant::from_ms(1);
        let mut now = Instant::from_ms(1);
        for &(dev, op, dt_ms) in &ops {
            now = floor.max(now + Duration::from_ms(dt_ms));
            let d = dev as usize;
            let mut air = AirCtx::bare(&mut medium, now, &mut tel);
            match op {
                Op::Plain => {
                    let c = mac.mcps_data(&mut air, McpsDataRequest::plain(dev, b"reading"));
                    expect[d] += 1;
                    prop_assert_eq!(c.handle, expect[d]);
                    prop_assert_eq!(c.device, dev);
                    prop_assert_eq!(c.status, MacStatus::Success);
                    prop_assert_eq!(c.copies_sent, 1);
                    prop_assert!(c.t_tx_start >= c.t_wake);
                    prop_assert!(c.t_tx_end >= c.t_tx_start);
                    prop_assert!(c.t_sleep >= c.t_tx_end);
                    if let Some(prev) = last_seq[d] {
                        prop_assert!(c.seq > prev, "fresh uplinks use fresh sequence numbers");
                    }
                    last_seq[d] = Some(c.seq);
                    floor = floor.max(c.t_sleep);
                }
                Op::Windowed => {
                    let c = mac.mcps_data(&mut air, McpsDataRequest {
                        device: dev,
                        payload: b"reading",
                        rx_window: Some(WINDOW),
                        copies: 1,
                        repeat_of: None,
                    });
                    expect[d] += 1;
                    prop_assert_eq!(c.handle, expect[d]);
                    prop_assert_eq!(c.status, MacStatus::Success);
                    let (open, close) = c.rx_window
                        .expect("a windowed request confirms its announced window");
                    prop_assert!(open >= c.t_tx_end);
                    prop_assert!(close > open);
                    // The companion listen is a primitive too: it must
                    // confirm (empty air ⇒ no downlink) and consume a
                    // handle like any other request.
                    let w = mac.mlme_wake(&mut air, MlmeWakeRequest { device: dev, open, close });
                    expect[d] += 1;
                    prop_assert_eq!(w.listened, close.since(open));
                    prop_assert!(w.downlink.is_none());
                    last_seq[d] = Some(c.seq);
                    floor = floor.max(c.t_sleep).max(close);
                }
                Op::Repeat => {
                    // A repeat copy re-uses the last sequence number
                    // and never allocates a new one (skipped until the
                    // device has sent something to repeat).
                    let Some(seq) = last_seq[d] else { continue };
                    let c = mac.mcps_data(&mut air, McpsDataRequest {
                        device: dev,
                        payload: b"reading",
                        rx_window: None,
                        copies: 1,
                        repeat_of: Some(seq),
                    });
                    expect[d] += 1;
                    prop_assert_eq!(c.handle, expect[d]);
                    prop_assert_eq!(c.status, MacStatus::Success);
                    prop_assert_eq!(c.seq, seq);
                    floor = floor.max(c.t_sleep);
                }
            }
        }
        // Closing probe: one more data request per device pins the
        // final counter — exactly one confirm (handle) was consumed
        // per request, MLME-WAKE included.
        for dev in 0..DEVICES as u32 {
            now = floor.max(now + Duration::from_ms(1));
            let mut air = AirCtx::bare(&mut medium, now, &mut tel);
            let c = mac.mcps_data(&mut air, McpsDataRequest::plain(dev, b"probe"));
            floor = floor.max(c.t_sleep);
            // Every earlier primitive consumed exactly one handle.
            prop_assert_eq!(c.handle, expect[dev as usize] + 1);
        }
    }

    /// BLE: success and refusal both confirm exactly once; a refused
    /// oversize payload consumes a handle but never touches the air,
    /// and a served event puts exactly three PDUs (one per advertising
    /// channel) on it.
    #[test]
    fn ble_confirms_success_and_refusal_alike(
        sizes in proptest::collection::vec(0usize..=BLE_DATA_CAPACITY + 10, 1..30),
        seed in 0u64..1_000,
    ) {
        let mut medium = Medium::new(Default::default(), seed);
        let mut tel = Telemetry::off();
        let mut mac = BleMac::new();
        let radios = [37u8, 38, 39].map(|ch| medium.attach(RadioConfig {
            channel: ch,
            ..Default::default()
        }));
        mac.push_advertiser(
            7,
            radios,
            Advertiser::new(Instant::from_ms(5), Duration::from_ms(50), seed | 1),
        );

        let mut handle = 0u64;
        let mut on_air = 0u64;
        for &len in &sizes {
            let payload = vec![0xA5u8; len];
            let at = mac.next_event_at(0);
            let mut air = AirCtx::bare(&mut medium, at, &mut tel);
            let c = mac.mcps_data(&mut air, McpsDataRequest::plain(0, &payload));
            handle += 1;
            prop_assert_eq!(c.handle, handle);
            if len <= BLE_DATA_CAPACITY {
                prop_assert_eq!(c.status, MacStatus::Success);
                prop_assert_eq!(c.copies_sent, 3);
                on_air += 3;
            } else {
                prop_assert_eq!(c.status, MacStatus::FrameTooLong);
                prop_assert_eq!(c.copies_sent, 0);
            }
            // A refused request must not touch the air.
            prop_assert_eq!(medium.tx_count(), on_air);
        }
    }

    /// WiFi: data before associate refuses — and still confirms, off
    /// the air. MLME and MCPS primitives advance one shared per-device
    /// handle sequence.
    #[test]
    fn wifi_refusals_and_exchanges_share_one_handle_sequence(
        n_refused in 1usize..4,
        seed in 0u64..50,
    ) {
        let mut medium = Medium::new(Default::default(), seed);
        let mut tel = Telemetry::off();
        let mut mac = WifiMac::new();
        let sta_radio = medium.attach(RadioConfig::default());
        let ap_radio = medium.attach(RadioConfig {
            position_m: (0.0, 1.0),
            ..Default::default()
        });
        mac.push_station(
            sta_radio,
            ap_radio,
            AccessPoint::new(b"HomeNet", "hunter22", MacAddr::new([0xAA, 0, 0, 0, 0, 1]), 6),
            MacAddr::new([0x02, 0, 0, 0, 0, 5]),
            "hunter22",
            ConnectConfig::default(),
            seed as u32,
        );

        let mut handle = 0u64;
        for _ in 0..n_refused {
            let mut air = AirCtx::bare(&mut medium, Instant::ZERO, &mut tel);
            let c = mac.mcps_data(&mut air, McpsDataRequest::plain(0, b"early"));
            handle += 1;
            prop_assert_eq!(c.status, MacStatus::NotAssociated);
            prop_assert_eq!(c.handle, handle);
            prop_assert_eq!(medium.tx_count(), 0);
        }
        let a = {
            let mut air = AirCtx::bare(&mut medium, Instant::ZERO, &mut tel);
            mac.mlme_associate(&mut air, MlmeAssociateRequest { device: 0 })
        };
        handle += 1;
        prop_assert!(a.connected);
        prop_assert_eq!(a.status, MacStatus::Success);
        prop_assert!(medium.tx_count() > 0, "association is a real exchange on the air");
        let c = {
            let mut air = AirCtx::bare(&mut medium, a.t_sleep + Duration::from_ms(2), &mut tel);
            mac.mcps_data(&mut air, McpsDataRequest::plain(0, b"t=21.5C"))
        };
        handle += 1;
        prop_assert_eq!(c.status, MacStatus::Success);
        prop_assert_eq!(c.handle, handle);
    }

    /// The gateway face: under an arbitrary fault timeline, decoded
    /// indications never outnumber what the medium delivered to the
    /// gateway radio (measured on an identically-seeded twin world),
    /// and per-device sequence order survives the lift.
    #[test]
    fn indications_never_outnumber_medium_hears(
        per_dev in 1usize..8,
        devices in 1usize..4,
        gap_ms in 20u64..200,
        loss_p in 0.0f64..1.0,
        outage in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let total = (per_dev * devices) as u64;
        let horizon = Instant::from_ms(10 + gap_ms * (total + 4));
        let mut phases = vec![FaultPhase::new(
            Instant::from_ms(gap_ms),
            Instant::from_ms(gap_ms * (total / 2 + 2)),
            Disturbance::RandomLoss { p: loss_p },
            "lossy patch",
        )];
        if outage {
            phases.push(FaultPhase::new(
                Instant::from_ms(gap_ms * (total / 2 + 2)),
                Instant::from_ms(gap_ms * (total + 3)),
                Disturbance::GatewayOutage,
                "reboot",
            ));
        }
        let mut tl = FaultTimeline::new(FaultPlan::new(phases, seed));

        // Twin worlds: the medium's loss rolls are keyed by
        // (transmission, receiver), so an identical build yields an
        // identical gateway inbox.
        let (mut raw_world, raw_gw) = build_offered(per_dev, devices, gap_ms, seed);
        let hears = raw_world.take_inbox(raw_gw, horizon).len();

        let (mut medium, gw_radio) = build_offered(per_dev, devices, gap_ms, seed);
        let mut ingest = GatewayIngest::new(gw_radio, Gateway::new());
        let got = ingest.drain_indications(&mut medium, Some(&mut tl), horizon);

        prop_assert!(
            got.len() <= hears,
            "indications ({}) outnumber medium hears ({})",
            got.len(),
            hears
        );
        prop_assert!(got.len() as u64 <= total);
        // The lift is order- and identity-preserving: per device, the
        // surviving sequence numbers are strictly increasing.
        let mut last: Vec<Option<u16>> = vec![None; devices];
        for ind in &got {
            prop_assert!(ind.device_id >= 1 && ind.device_id <= devices as u32);
            let slot = &mut last[(ind.device_id - 1) as usize];
            if let Some(prev) = *slot {
                prop_assert!(ind.seq > prev, "device {} replayed seq {}", ind.device_id, ind.seq);
            }
            *slot = Some(ind.seq);
            prop_assert_eq!(ind.payload.as_slice(), b"r".as_slice());
        }
    }
}

/// Build a seeded world with `devices` Wi-LE injectors offering
/// `per_dev` staggered uplinks each toward a gateway radio at the
/// origin; returns the medium (frames in flight) and the gateway's
/// radio id. Deterministic: two calls with the same arguments produce
/// byte-identical delivery.
fn build_offered(per_dev: usize, devices: usize, gap_ms: u64, seed: u64) -> (Medium, RadioId) {
    let mut medium = Medium::new(Default::default(), seed);
    let mut tel = Telemetry::off();
    let gw_radio = medium.attach(RadioConfig::default());
    let mut mac = WileMac::new();
    for dev in 0..devices as u32 {
        let radio = medium.attach(RadioConfig {
            position_m: (2.0 + dev as f64, 0.0),
            ..Default::default()
        });
        mac.push_injector(
            Injector::new(DeviceIdentity::new(dev + 1), Instant::ZERO),
            radio,
        );
    }
    let mut now = Instant::from_ms(10);
    for _round in 0..per_dev {
        for dev in 0..devices as u32 {
            let mut air = AirCtx::bare(&mut medium, now, &mut tel);
            let c = mac.mcps_data(&mut air, McpsDataRequest::plain(dev, b"r"));
            assert_eq!(c.status, MacStatus::Success);
            now += Duration::from_ms(gap_ms);
        }
    }
    (medium, gw_radio)
}
