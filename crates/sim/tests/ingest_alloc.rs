//! A warm gateway poll allocates nothing per heard copy.
//!
//! Every gateway that hears a transmission gets the same shared
//! `Arc<[u8]>` from the medium. `GatewayIngest::ingest_when` feeds the
//! frames straight into `Gateway::ingest`, which validates a copy in
//! place, deduplicates it, and makes a delivered single-fragment
//! message's payload a view that takes the frame's `Arc`. So once every
//! device is in the dedup map, a poll allocates only its list of
//! deliveries, which doubles as it grows: a poll of 10,000 copies may
//! allocate only a few times more than a poll of 100. A per-copy
//! allocation (a collected survivor list, a payload copied out of its
//! frame) costs one per copy or per delivery and breaks the bound.
//! Counting allocations instead of timing them makes the check immune
//! to a noisy host. The allocator counts only on the thread that
//! switched counting on, so libtest's other threads cannot disturb it.

use std::sync::Arc;

use wile::beacon::build_wile_beacon;
use wile::message::Message;
use wile::monitor::{Gateway, Received};
use wile::payload::Payload;
use wile_dot11::mac::SeqControl;
use wile_dot11::MacAddr;
use wile_radio::medium::{RadioId, RxFrame};
use wile_radio::time::Instant;
use wile_sim::ingest::GatewayIngest;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_in;

const DEVICES: u32 = 2_500;
/// Copies of each beacon one gateway hears (a repeat, or the same frame
/// relayed twice): the first is delivered, the rest are duplicates.
const COPIES: u64 = 4;

/// The payload device `d` sends as message `seq`.
fn reading(d: u32, seq: u16) -> Vec<u8> {
    format!("dev {d} seq {seq}").into_bytes()
}

/// One single-fragment beacon of message `seq` from each of the first
/// `devices` devices, each frame shared by [`COPIES`] received copies.
/// Returns the copies in arrival order and the shared frames.
fn poll_of(devices: u32, seq: u16) -> (Vec<RxFrame>, Vec<Arc<[u8]>>) {
    let frames: Vec<Arc<[u8]>> = (0..devices)
        .map(|d| {
            let msg = Message::new(d, seq, &reading(d, seq));
            build_wile_beacon(MacAddr::from_device_id(d), &msg, SeqControl::new(seq, 0), 0)
                .unwrap()
                .into()
        })
        .collect();
    let base = Instant::from_secs(10 * u64::from(seq));
    let copies = frames
        .iter()
        .enumerate()
        .flat_map(|(d, bytes)| {
            (0..COPIES).map(move |c| RxFrame {
                at: base + wile_radio::time::Duration::from_us(10 * d as u64 + c),
                from: RadioId(d as u32 + 1),
                rssi_dbm: -60.0 - c as f64,
                snr_db: 25.0,
                bytes: Arc::clone(bytes),
            })
        })
        .collect();
    (copies, frames)
}

/// Each delivery is its device's reading, and reads from its frame.
fn check(got: &[Received], frames: &[Arc<[u8]>], seq: u16) {
    assert_eq!(got.len(), frames.len());
    for (r, frame) in got.iter().zip(frames) {
        assert_eq!(r.seq, seq);
        assert_eq!(r.payload, reading(r.device_id, seq));
        assert!(
            frame.as_ptr_range().contains(&r.payload.as_ptr()),
            "device {}: payload copied out of its frame",
            r.device_id
        );
    }
}

#[test]
fn a_warm_poll_does_not_allocate_per_heard_copy() {
    let mut ingest = GatewayIngest::new(RadioId(0), Gateway::new());
    // Warm up: every device in the dedup map.
    let (warm, _) = poll_of(DEVICES, 0);
    assert_eq!(
        ingest.ingest_when(warm, None, |_| true).len(),
        DEVICES as usize
    );

    // The copies are built before counting: they are the medium's
    // allocations, not the gateway's.
    let (small, small_frames) = poll_of(25, 1);
    let (large, large_frames) = poll_of(DEVICES, 2);
    let small_copies = small.len();
    let large_copies = large.len();
    let (few, got_few) = allocations_in(|| ingest.ingest_when(small, None, |_| true));
    let (many, got_many) = allocations_in(|| ingest.ingest_when(large, None, |_| true));
    // 9,900 more copies, 2,475 more deliveries. The deliveries list
    // doubles about seven more times; one allocation per copy would add
    // 9,900, one per delivery 2,475.
    let extra = many.saturating_sub(few);
    assert!(
        extra < 32,
        "a poll of {large_copies} copies allocated {many} times, one of \
         {small_copies} allocated {few}: {extra} more, i.e. ~{:.2} per extra copy",
        extra as f64 / (large_copies - small_copies) as f64
    );

    check(&got_few, &small_frames, 1);
    check(&got_many, &large_frames, 2);
    let stats = ingest.gateway().stats();
    assert_eq!(stats.duplicates, (COPIES - 1) * u64::from(2 * DEVICES + 25));
}

#[test]
fn an_empty_payload_allocates_nothing() {
    let (n, p) = allocations_in(Payload::default);
    assert_eq!(n, 0);
    assert!(p.is_empty());
    let mut taken = Payload::from(&b"winner"[..]);
    let (n, moved) = allocations_in(|| std::mem::take(&mut taken));
    assert_eq!(n, 0, "mem::take of a payload allocated");
    assert_eq!(
        (moved, taken),
        (Payload::from(&b"winner"[..]), Payload::default())
    );
}
