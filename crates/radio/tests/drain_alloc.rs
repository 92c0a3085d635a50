//! A warm gateway drain allocates only the keyed frames it hears first.
//!
//! A transmission's bytes live in one `Arc<[u8]>` that all of its
//! receivers share. [`Medium::transmit`] makes it at transmit, a copy
//! of the caller's bytes; a frame logged by key with
//! [`Medium::transmit_from`] gets it on its first hear, when its
//! [`FrameSource`] renders it. So once every link a gateway can hear is
//! in its link row and its scratch lists are grown, a warm transmit of
//! a copied frame allocates exactly that `Arc`, and a poll's drains
//! into a reused buffer plus the `release_all` behind them touch the
//! allocator once per keyed transmission heard for the first time and
//! never for a copied one. Any other allocation (a link-row insert or
//! resize, a per-drain list, a per-receiver copy, a per-render buffer)
//! breaks a count.

use std::collections::BTreeSet;
use std::sync::Arc;

use wile_radio::medium::{FrameSource, Medium, RadioConfig, RadioId, RxFrame, TxParams};
use wile_radio::time::{Duration, Instant};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_in;

const BEACON: &[u8] = b"a beacon of the drain allocation guard";

/// Renders key `k` as [`BEACON`] followed by `k`'s eight little-endian
/// bytes, into the medium's buffer: no allocation of its own.
#[derive(Debug)]
struct Beacons;

impl FrameSource for Beacons {
    fn render(&self, key: u64, out: &mut Vec<u8>) {
        out.extend_from_slice(BEACON);
        out.extend_from_slice(&key.to_le_bytes());
    }
}

/// Beacons per period: one from each device.
const DEVICES: u64 = 800;

#[test]
fn copied_frames_allocate_at_transmit_not_in_a_warm_poll() {
    let warm = warm_period(false);
    assert_eq!(
        warm.sent, DEVICES,
        "{} allocations in a warm period of {DEVICES} copied transmits",
        warm.sent
    );
    assert_eq!(
        warm.polled, 0,
        "{} allocations in a warm poll of copied frames ({} receptions)",
        warm.polled, warm.receptions
    );
}

#[test]
fn a_warm_poll_of_keyed_frames_allocates_one_arc_per_first_hear() {
    let Warm {
        polled: n,
        first_hears,
        receptions,
        ..
    } = warm_period(true);
    assert_eq!(
        n, first_hears,
        "{n} allocations in a warm poll that heard {first_hears} transmissions \
         ({receptions} receptions)"
    );
}

/// What a warm period allocated, and what its poll heard.
struct Warm {
    /// Allocations of the period's transmits.
    sent: u64,
    /// Allocations of the poll behind them.
    polled: u64,
    /// Transmissions the poll heard, each once however many gateways
    /// heard it.
    first_hears: u64,
    /// Frames the poll delivered.
    receptions: usize,
}

/// Three periods of beacons, each followed by a poll; the third
/// period's transmits and poll are counted apart. With `by_key` every beacon
/// goes through [`Medium::transmit_from`] with a per-transmission key,
/// else through [`Medium::transmit`].
fn warm_period(by_key: bool) -> Warm {
    let period = Duration::from_secs(10);
    let stagger = Duration::from_ms(2);
    let params = TxParams {
        airtime: Duration::from_us(300),
        power_dbm: 0.0,
        min_snr_db: 4.0,
    };
    let mut medium = Medium::new(Default::default(), 42);
    medium.retire_consumed(true);
    let source = medium.add_source(Arc::new(Beacons));
    let keyed_len = (BEACON.len() + 8) as u16;
    // A 2×2 gateway grid over a 40×20 device grid at 4 m pitch: the
    // gateways' horizons (~54 m) overlap, so most beacons are heard by
    // several gateways and each first hear is shared.
    let gateways: Vec<RadioId> = [(40.0, 20.0), (120.0, 20.0), (40.0, 60.0), (120.0, 60.0)]
        .into_iter()
        .map(|position_m| {
            medium.attach(RadioConfig {
                position_m,
                ..Default::default()
            })
        })
        .collect();
    let devices: Vec<RadioId> = (0..DEVICES)
        .map(|d| {
            medium.attach(RadioConfig {
                position_m: ((d % 40) as f64 * 4.0, (d / 40) as f64 * 4.0),
                ..Default::default()
            })
        })
        .collect();
    let mut heard: Vec<RxFrame> = Vec::new();
    // Period `k`: every device beacons once, then the poll drains each
    // gateway into `heard` and releases the period.
    let period_of_beacons = |medium: &mut Medium, k: u64| {
        let start = Instant::ZERO + Duration::from_nanos(k * period.as_nanos());
        for (d, &radio) in devices.iter().enumerate() {
            let at = start + Duration::from_nanos(d as u64 * stagger.as_nanos());
            if by_key {
                medium.transmit_from(radio, at, params, source, k * DEVICES + d as u64, keyed_len);
            } else {
                medium.transmit(radio, at, params, BEACON);
            }
        }
        start + period
    };
    let poll = |medium: &mut Medium, heard: &mut Vec<RxFrame>, up_to: Instant| {
        for &gw in &gateways {
            medium.take_inbox_into(gw, up_to, heard);
        }
        medium.release_all(up_to);
    };

    // Warm-up: every link enters its row, and the buffer, the log and
    // the scratch lists reach their working size. The log and the cell
    // lists still hold the last frames of one period when the next
    // begins, so they reach it only in the second.
    for k in 0..2 {
        let up_to = period_of_beacons(&mut medium, k);
        poll(&mut medium, &mut heard, up_to);
        heard.clear();
    }
    heard.reserve(4 * DEVICES as usize);
    let warm = medium.stats();

    let (sent, up_to) = allocations_in(|| period_of_beacons(&mut medium, 2));
    let (polled, ()) = allocations_in(|| poll(&mut medium, &mut heard, up_to));
    let stats = medium.stats();
    assert_eq!(
        stats.cache_misses, warm.cache_misses,
        "every link was cached"
    );
    let first_hears = heard
        .iter()
        .map(|f| (f.from, f.at))
        .collect::<BTreeSet<_>>()
        .len() as u64;
    assert!(first_hears > 0);
    assert!(
        heard.len() as u64 > first_hears,
        "the world must share first hears between gateways"
    );
    Warm {
        sent,
        polled,
        first_hears,
        receptions: heard.len(),
    }
}
