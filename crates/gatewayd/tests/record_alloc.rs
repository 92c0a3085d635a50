//! A warm decoder copies each wire frame exactly once.
//!
//! `FrameDecoder::next_record` lends each record body out of its own
//! buffer, and `WireRecord::decode` copies a frame record's bytes into
//! the `Arc<[u8]>` that the gateway will share, so once the decoder's
//! buffer has grown, decoding a chunk allocates one `Arc` per frame
//! record and nothing for any other record. A record copied out of the
//! buffer first costs a second allocation per record and breaks the
//! count. The allocator counts only on the thread that switched
//! counting on, so libtest's other threads cannot disturb it.

use wile_gatewayd::codec::FrameDecoder;
use wile_gatewayd::{LaneFrame, WireRecord};
use wile_radio::medium::{RadioId, RxFrame};
use wile_radio::time::Instant;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_in;

/// A wire chunk of `frames` frame records, with an `Advance` after
/// every tenth, starting at arrival `t0` ms.
fn chunk(frames: u64, t0: u64) -> (Vec<u8>, Vec<WireRecord>) {
    let mut records = Vec::new();
    for i in 0..frames {
        let at = Instant::from_ms(t0 + i);
        let bytes: Vec<u8> = (0..60 + i % 40).map(|b| (b ^ i) as u8).collect();
        records.push(WireRecord::Frame(LaneFrame {
            lane: (i % 4) as u32,
            frame: RxFrame {
                at,
                from: RadioId(i as u32),
                rssi_dbm: -70.0,
                snr_db: 20.0,
                bytes: bytes.into(),
            },
        }));
        if i % 10 == 9 {
            records.push(WireRecord::Advance { to: at });
        }
    }
    let mut wire = Vec::new();
    for r in &records {
        r.encode(&mut wire);
    }
    (wire, records)
}

#[test]
fn a_warm_decoder_allocates_one_arc_per_frame_record() {
    const FRAMES: u64 = 500;
    let mut dec = FrameDecoder::new();
    let mut got = Vec::with_capacity(2 * FRAMES as usize);
    // Warm up: the decoder's buffer grows to hold a whole chunk.
    let (warm, _) = chunk(FRAMES, 0);
    dec.push(&warm);
    while let Some(body) = dec.next_record().unwrap() {
        drop(WireRecord::decode(body).unwrap());
    }

    // A second chunk of the same size fits the buffer once the first is
    // compacted away, so every allocation below is a decoded record's.
    let (wire, want) = chunk(FRAMES, 10_000);
    let (n, ()) = allocations_in(|| {
        dec.push(&wire);
        while let Some(body) = dec.next_record().unwrap() {
            got.push(WireRecord::decode(body).unwrap());
        }
    });
    assert_eq!(got, want);
    assert_eq!(dec.buffered(), 0);
    assert_eq!(
        n,
        FRAMES,
        "{FRAMES} frame records and {} advances allocated {n} times",
        want.len() as u64 - FRAMES
    );
}
