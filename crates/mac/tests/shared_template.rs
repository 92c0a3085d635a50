//! A [`BeaconFleet`] renders every device's beacons from one shared
//! template, re-stamped per device with its identity. The frames it
//! puts on the air must be byte-equal to what a template built for each
//! device's own identity renders — for any device id (including
//! `u32::MAX`), any interleaving of devices, and across the
//! sequence-number wrap. Whole frames are compared, so the sequence
//! number in the fragment header and the MAC sequence control are
//! checked too. (Arbitrary payloads through `render_as` are covered by
//! `crates/core/tests/props.rs`; the fleet always sends
//! [`BeaconFleet::READING`].)

use proptest::prelude::*;
use wile::beacon::BeaconTemplate;
use wile::registry::DeviceIdentity;
use wile_dot11::mac::SeqControl;
use wile_mac::{AirCtx, BeaconFleet};
use wile_radio::medium::{Medium, RadioConfig};
use wile_radio::time::{Duration, Instant};
use wile_telemetry::Telemetry;

/// The frame a per-device template renders for `id`'s `seq`-th beacon.
fn own_frame(id: u32, seq: u16) -> Vec<u8> {
    let reading = BeaconFleet::READING;
    let mut own = BeaconTemplate::new(DeviceIdentity::new(id).mac, id, reading.len()).unwrap();
    own.render(seq, SeqControl::new(seq & 0x0FFF, 0), &reading)
        .to_vec()
}

/// A fleet whose wakes never run out.
fn fleet() -> BeaconFleet {
    BeaconFleet::new(Duration::from_secs(1), Instant::from_secs(u32::MAX as u64))
}

/// Wake fleet device `dev` at `now`; returns the frame the medium
/// carried.
fn send(fleet: &mut BeaconFleet, medium: &mut Medium, dev: u32, now: Instant) -> Vec<u8> {
    let mut tel = Telemetry::off();
    let mut air = AirCtx::bare(medium, now, &mut tel);
    fleet.wake(&mut air, dev);
    medium
        .transmissions()
        .last()
        .expect("one frame sent")
        .3
        .to_vec()
}

proptest! {
    #[test]
    fn shared_template_frames_equal_per_device_templates(
        ids in prop::collection::vec(
            prop_oneof![Just(u32::MAX), Just(0u32), Just(1u32), any::<u32>()],
            1..6,
        ),
        wakes in prop::collection::vec(any::<prop::sample::Index>(), 1..40),
    ) {
        let mut medium = Medium::new(Default::default(), 5);
        let mut fleet = fleet();
        let devs: Vec<u32> = ids
            .iter()
            .map(|&id| fleet.push_device(id, medium.attach(RadioConfig::default())))
            .collect();
        let mut seqs = vec![0u16; ids.len()];
        let mut now = Instant::ZERO;
        for w in wakes {
            // Devices interleave, so every render re-stamps the shared
            // template from a different identity.
            let d = w.index(ids.len());
            let frame = send(&mut fleet, &mut medium, devs[d], now);
            prop_assert_eq!(frame, own_frame(ids[d], seqs[d]));
            seqs[d] = seqs[d].wrapping_add(1);
            now += Duration::from_ms(1);
        }
    }
}

#[test]
fn shared_template_frames_survive_the_sequence_wrap() {
    // One device crosses the wrap; around it a second device renders
    // just before each checked frame, so every checked render re-stamps
    // the shared template from another identity.
    let mut medium = Medium::new(Default::default(), 5);
    medium.retire_consumed(true);
    let mut fleet = fleet();
    let wrapping = fleet.push_device(u32::MAX, medium.attach(RadioConfig::default()));
    let other = fleet.push_device(7, medium.attach(RadioConfig::default()));
    let mut now = Instant::ZERO;
    for k in 0..=65_537u32 {
        if k >= 65_534 {
            send(&mut fleet, &mut medium, other, now);
        }
        let frame = send(&mut fleet, &mut medium, wrapping, now);
        if !(2..65_534).contains(&k) {
            assert_eq!(frame, own_frame(u32::MAX, k as u16), "beacon {k}");
        }
        // Retire what was sent so the medium's log stays short.
        now += Duration::from_ms(1);
        medium.release_all(now);
    }
}
