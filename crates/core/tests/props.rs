//! Property-based tests for the Wi-LE core: codecs round-trip for all
//! valid inputs, parsers never panic on garbage, and the end-to-end
//! pipeline is lossless at close range.

use proptest::prelude::*;
use wile::beacon::{build_wile_beacon, wile_fragments, BeaconTemplate};
use wile::encode::{decode_fragments, encode_fragments, FRAGMENT_CAPACITY, MAX_MESSAGE_PAYLOAD};
use wile::message::{FragmentHeader, Message};
use wile::prelude::*;
use wile::registry::Registry;
use wile::security::{decrypt_message, encrypt_message};
use wile::sensor::{decode_readings, encode_readings, Reading};
use wile_dot11::mac::SeqControl;
use wile_dot11::mgmt::Beacon;
use wile_radio::time::Instant;
use wile_radio::{Medium, RadioConfig};

fn arb_reading() -> impl Strategy<Value = Reading> {
    prop_oneof![
        any::<i16>().prop_map(Reading::TemperatureCentiC),
        (0u16..=1000).prop_map(Reading::HumidityPerMille),
        any::<u16>().prop_map(Reading::BatteryMv),
        any::<u32>().prop_map(Reading::Counter),
    ]
}

proptest! {
    #[test]
    fn fragment_round_trip(
        device in any::<u32>(),
        seq in any::<u16>(),
        flags in 0u8..16,
        payload in prop::collection::vec(any::<u8>(), 0..MAX_MESSAGE_PAYLOAD),
    ) {
        let mut msg = Message::new(device, seq, &payload);
        msg.flags = flags;
        let frags = encode_fragments(&msg).unwrap();
        // Each fragment fits a vendor IE.
        for f in &frags {
            prop_assert!(f.len() <= wile_dot11::ie::VENDOR_MAX_PAYLOAD);
        }
        prop_assert_eq!(frags.len(), payload.len().div_ceil(FRAGMENT_CAPACITY).max(1));
        let back = decode_fragments(frags.iter().map(|f| f.as_slice())).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn fragment_header_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..32)) {
        let _ = FragmentHeader::parse(&bytes);
    }

    #[test]
    fn beacon_pipeline_round_trip(
        device in any::<u32>(),
        seq in any::<u16>(),
        payload in prop::collection::vec(any::<u8>(), 0..600),
        mac_seq in 0u16..4096,
    ) {
        let msg = Message::new(device, seq, &payload);
        let frame = build_wile_beacon(
            wile_dot11::MacAddr::from_device_id(device),
            &msg,
            SeqControl::new(mac_seq, 0),
            0,
        ).unwrap();
        prop_assert!(wile_dot11::fcs::check_fcs(&frame));
        let b = Beacon::new_checked(&frame[..]).unwrap();
        prop_assert!(b.is_hidden_ssid());
        let back = decode_fragments(wile_fragments(&b).into_iter()).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn template_equals_fresh_build(
        device in any::<u32>(),
        other in any::<u32>(),
        seq in any::<u16>(),
        mac_seq in 0u16..4096,
        payload in prop::collection::vec(any::<u8>(), 1..FRAGMENT_CAPACITY),
    ) {
        let mac = wile_dot11::MacAddr::from_device_id(device);
        let mut tpl = BeaconTemplate::new(mac, device, payload.len()).unwrap();
        let patched = tpl.render(seq, SeqControl::new(mac_seq, 0), &payload);
        let fresh = build_wile_beacon(mac, &Message::new(device, seq, &payload), SeqControl::new(mac_seq, 0), 0).unwrap();
        prop_assert_eq!(patched, &fresh[..]);
        // A template built for another device, rendered for this one.
        let other_mac = wile_dot11::MacAddr::from_device_id(other);
        let shared = BeaconTemplate::new(other_mac, other, payload.len()).unwrap();
        let mut restamped = Vec::new();
        shared.render_as(device, seq, SeqControl::new(mac_seq, 0), &payload, &mut restamped);
        prop_assert_eq!(restamped, fresh);
    }

    #[test]
    fn security_round_trip(
        secret in prop::collection::vec(any::<u8>(), 1..32),
        device in any::<u32>(),
        epoch in any::<u16>(),
        seq in any::<u16>(),
        plaintext in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let id = DeviceIdentity::with_key(device, &secret);
        let msg = encrypt_message(&id, epoch, seq, &plaintext);
        prop_assert!(msg.is_encrypted());
        prop_assert_eq!(decrypt_message(&id, epoch, &msg).unwrap(), plaintext);
        // Wrong epoch always fails.
        prop_assert!(decrypt_message(&id, epoch.wrapping_add(1), &msg).is_err());
    }

    #[test]
    fn sensor_codec_round_trip(readings in prop::collection::vec(arb_reading(), 0..12)) {
        let bytes = encode_readings(&readings);
        prop_assert_eq!(decode_readings(&bytes).unwrap(), readings);
    }

    #[test]
    fn sensor_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode_readings(&bytes);
    }

    #[test]
    fn end_to_end_lossless_at_close_range(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..100), 1..8),
        dist in 0.5f64..4.0,
    ) {
        let mut medium = Medium::new(Default::default(), 12);
        let s = medium.attach(RadioConfig::default());
        let p = medium.attach(RadioConfig { position_m: (dist, 0.0), ..Default::default() });
        let mut inj = Injector::new(DeviceIdentity::new(1), Instant::ZERO);
        for (i, pl) in payloads.iter().enumerate() {
            inj.sleep_until(Instant::from_secs(1 + i as u64));
            inj.inject(&mut medium, s, pl);
        }
        let mut gw = Gateway::new();
        let got = gw.poll(&mut medium, p, Instant::from_secs(60));
        prop_assert_eq!(got.len(), payloads.len());
        for (rx, pl) in got.iter().zip(&payloads) {
            prop_assert_eq!(&rx.payload, pl);
        }
    }

    #[test]
    fn gateway_never_panics_on_garbage_frames(
        frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 0..10),
    ) {
        use wile_radio::medium::TxParams;
        use wile_radio::time::Duration;
        let mut medium = Medium::new(Default::default(), 13);
        let a = medium.attach(RadioConfig::default());
        let b = medium.attach(RadioConfig { position_m: (1.0, 0.0), ..Default::default() });
        let mut t = Instant::ZERO;
        for f in &frames {
            t = medium.transmit(
                a,
                t + Duration::from_ms(1),
                TxParams { airtime: Duration::from_us(50), power_dbm: 0.0, min_snr_db: 5.0 },
                f.clone(),
            );
        }
        let mut gw = Gateway::new();
        let got = gw.poll(&mut medium, b, t + Duration::from_secs(1));
        // Random bytes virtually never carry a valid FCS + Wi-LE structure.
        prop_assert!(got.len() <= frames.len());
        prop_assert_eq!(gw.stats().frames_seen as usize, frames.len());
    }

    #[test]
    fn gateway_never_double_delivers_under_dup_corruption_reorder(
        n_msgs in 1u16..6,
        copies in 1usize..4,
        shuffle_seed in any::<u64>(),
        corruptions in prop::collection::vec((any::<u16>(), any::<u16>()), 0..8),
        n_batches in 1usize..4,
    ) {
        use wile_radio::medium::{RadioId, RxFrame};
        use wile::linkhealth::LinkHealthConfig;

        // Valid beacons for (device, seq) pairs, each replicated
        // `copies` times — the k-repeat policy as the channel sees it.
        let mut frames = Vec::new();
        for device in 1u32..=2 {
            for seq in 0..n_msgs {
                let msg = Message::new(device, seq, b"reading");
                let beacon = build_wile_beacon(
                    wile_dot11::MacAddr::from_device_id(device),
                    &msg,
                    SeqControl::new(seq, 0),
                    0,
                ).unwrap();
                for _ in 0..copies {
                    frames.push((device, seq, beacon.clone()));
                }
            }
        }
        // Corrupt some copies (any byte — the FCS check must catch it
        // or the frame must still dedup correctly if it slips through
        // untouched regions... it cannot: any flip breaks the FCS).
        for &(which, at) in &corruptions {
            let i = which as usize % frames.len();
            let frame = &mut frames[i].2;
            let j = at as usize % frame.len();
            frame[j] ^= 0x55;
        }
        // Deterministic Fisher-Yates reorder (arrival order is
        // adversarial: interleaved devices, copies split across polls).
        let mut state = shuffle_seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in (1..frames.len()).rev() {
            frames.swap(i, next() as usize % (i + 1));
        }

        let mut gw = Gateway::with_link_health(LinkHealthConfig::default());
        let mut seen = std::collections::HashSet::new();
        let per_batch = frames.len().div_ceil(n_batches);
        let mut at_ms = 0u64;
        for chunk in frames.chunks(per_batch) {
            let batch: Vec<RxFrame> = chunk
                .iter()
                .map(|(_, _, bytes)| {
                    at_ms += 1;
                    RxFrame {
                        at: Instant::from_ms(at_ms),
                        from: RadioId(0),
                        rssi_dbm: -40.0,
                        snr_db: 40.0,
                        bytes: bytes.clone().into(),
                    }
                })
                .collect();
            for rx in gw.ingest(batch) {
                // The core invariant: (device, seq) delivered at most
                // once across the entire campaign of polls.
                prop_assert!(
                    seen.insert((rx.device_id, rx.seq)),
                    "double delivery of ({}, {})", rx.device_id, rx.seq
                );
            }
        }
        // Nothing invented out of thin air either.
        prop_assert!(seen.len() <= 2 * n_msgs as usize);
    }

    #[test]
    fn encrypted_end_to_end(
        secret in prop::collection::vec(any::<u8>(), 1..16),
        plaintext in prop::collection::vec(any::<u8>(), 0..150),
    ) {
        let mut registry = Registry::new();
        registry.add(DeviceIdentity::with_key(9, &secret));
        let mut medium = Medium::new(Default::default(), 14);
        let s = medium.attach(RadioConfig::default());
        let p = medium.attach(RadioConfig { position_m: (2.0, 0.0), ..Default::default() });
        let mut inj = Injector::new(registry.get(9).unwrap().clone(), Instant::ZERO);
        inj.inject_sealed(&mut medium, s, &plaintext);
        let mut gw = Gateway::new();
        let got = gw.poll_decrypt(&mut medium, p, Instant::from_secs(5), &registry, 0);
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(&got[0].payload, &plaintext);
    }
}
