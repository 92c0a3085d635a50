//! Property tests for the gatewayd framing stack: the length-prefixed
//! codec and the record vocabulary above it. The properties are the
//! transport contract the daemon leans on — arbitrary payloads survive
//! arbitrary chunkings byte-exactly, torn reads resume, malformed
//! lengths surface as typed errors, and no input (valid, torn, or
//! garbage) ever panics the decoder. Hostile stream headers — an empty
//! body, no lanes, too many lanes, a zero poll cadence, too many polls
//! — are refused with typed errors before any pipeline is built from
//! them.

use proptest::prelude::*;
use std::sync::Arc;
use wile_gatewayd::capture::{replay_capture, ReplayError};
use wile_gatewayd::codec::{encode_record, CodecError, FrameDecoder, MAX_RECORD_LEN};
use wile_gatewayd::wire::{LaneFrame, WcapHeader, WireError, WireRecord, MAX_GATEWAYS, MAX_POLLS};
use wile_gatewayd::{Daemon, DaemonOptions};
use wile_radio::medium::{RadioId, RxFrame};
use wile_radio::time::{Duration, Instant};

/// Split `wire` into chunks whose sizes are drawn from `cuts`
/// (1..=17 bytes each, cycled), push each chunk, and drain records
/// after every push. Every torn boundary the transport could produce
/// is some instance of this.
fn decode_chunked(wire: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut dec = FrameDecoder::new();
    let mut got = Vec::new();
    let mut pos = 0;
    let mut i = 0;
    while pos < wire.len() {
        let n = cuts
            .get(i % cuts.len().max(1))
            .copied()
            .unwrap_or(1)
            .clamp(1, 17)
            .min(wire.len() - pos);
        dec.push(&wire[pos..pos + n]);
        pos += n;
        i += 1;
        while let Some(r) = dec.next_record().expect("valid stream") {
            got.push(r.to_vec());
        }
    }
    assert_eq!(dec.buffered(), 0, "no residue after a whole stream");
    got
}

proptest! {
    /// Any sequence of non-empty payloads round-trips byte-exactly
    /// through any chunking of the encoded stream.
    #[test]
    fn records_round_trip_across_arbitrary_chunkings(
        payloads in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 1..300), 1..20),
        cuts in prop::collection::vec(1usize..18, 1..12),
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            encode_record(&mut wire, p);
        }
        let got = decode_chunked(&wire, &cuts);
        prop_assert_eq!(got, payloads);
    }

    /// A torn prefix of a valid stream yields exactly the records whose
    /// bytes fully arrived, never an error, and the tail resumes: after
    /// pushing the rest, the remaining records appear.
    #[test]
    fn torn_reads_resume(
        payloads in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 1..200), 1..10),
        tear_frac in 0.0f64..1.0,
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            encode_record(&mut wire, p);
        }
        let tear = ((wire.len() as f64 * tear_frac) as usize).min(wire.len());
        let mut dec = FrameDecoder::new();
        dec.push(&wire[..tear]);
        let mut got = Vec::new();
        while let Some(r) = dec.next_record().expect("prefix of a valid stream")
        {
            got.push(r.to_vec());
        }
        prop_assert!(got.len() <= payloads.len());
        dec.push(&wire[tear..]);
        while let Some(r) = dec.next_record().expect("resumed stream") {
            got.push(r.to_vec());
        }
        prop_assert_eq!(got, payloads);
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// Zero and oversize declared lengths are typed errors that latch,
    /// regardless of what padding follows — and never a panic.
    #[test]
    fn bad_lengths_are_typed_and_latch(
        oversize in (MAX_RECORD_LEN as u32 + 1)..u32::MAX,
        garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut dec = FrameDecoder::new();
        dec.push(&0u32.to_le_bytes());
        dec.push(&garbage);
        prop_assert_eq!(dec.next_record(), Err(CodecError::ZeroLength));
        prop_assert_eq!(dec.next_record(), Err(CodecError::ZeroLength));
        prop_assert!(dec.is_poisoned());

        let mut dec = FrameDecoder::new();
        dec.push(&oversize.to_le_bytes());
        dec.push(&garbage);
        let expect = CodecError::Oversize { len: oversize as usize };
        prop_assert_eq!(dec.next_record(), Err(expect));
        prop_assert_eq!(dec.next_record(), Err(expect));
    }

    /// Arbitrary garbage never panics the decoder: every outcome is
    /// `Ok(Some)`, `Ok(None)`, or a typed latched error.
    #[test]
    fn garbage_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
        cuts in prop::collection::vec(1usize..18, 1..8),
    ) {
        let mut dec = FrameDecoder::new();
        let mut pos = 0;
        let mut i = 0;
        while pos < bytes.len() {
            let n = cuts[i % cuts.len()].min(bytes.len() - pos);
            dec.push(&bytes[pos..pos + n]);
            pos += n;
            i += 1;
            loop {
                match dec.next_record() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => {
                        prop_assert!(dec.is_poisoned());
                        break;
                    }
                }
            }
        }
    }

    /// The record vocabulary round-trips bit-exactly: lane, arrival
    /// stamp, radio id, RSSI/SNR f64 bit patterns, and frame bytes all
    /// survive encode → frame → decode.
    #[test]
    fn wire_records_round_trip(
        lane in any::<u32>(),
        at_ns in any::<u64>(),
        from in any::<u32>(),
        rssi_bits in any::<u64>(),
        snr_bits in any::<u64>(),
        frame_bytes in prop::collection::vec(any::<u8>(), 1..120),
        to_ns in any::<u64>(),
    ) {
        let records = vec![
            WireRecord::Frame(LaneFrame {
                lane,
                frame: RxFrame {
                    at: Instant::from_nanos(at_ns),
                    from: RadioId(from),
                    rssi_dbm: f64::from_bits(rssi_bits),
                    snr_db: f64::from_bits(snr_bits),
                    bytes: Arc::from(&frame_bytes[..]),
                },
            }),
            WireRecord::Advance { to: Instant::from_nanos(to_ns) },
            WireRecord::Shutdown,
        ];
        let mut wire = Vec::new();
        for r in &records {
            r.encode(&mut wire);
        }
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let mut got = Vec::new();
        while let Some(body) = dec.next_record().unwrap() {
            got.push(WireRecord::decode(body).unwrap());
        }
        // NaN RSSI/SNR breaks PartialEq on the f64s; compare the bit
        // patterns the wire actually carries.
        prop_assert_eq!(got.len(), records.len());
        for (g, r) in got.iter().zip(&records) {
            match (g, r) {
                (WireRecord::Frame(g), WireRecord::Frame(r)) => {
                    prop_assert_eq!(g.lane, r.lane);
                    prop_assert_eq!(g.frame.at, r.frame.at);
                    prop_assert_eq!(g.frame.from, r.frame.from);
                    prop_assert_eq!(
                        g.frame.rssi_dbm.to_bits(),
                        r.frame.rssi_dbm.to_bits()
                    );
                    prop_assert_eq!(
                        g.frame.snr_db.to_bits(),
                        r.frame.snr_db.to_bits()
                    );
                    prop_assert_eq!(&g.frame.bytes, &r.frame.bytes);
                }
                (g, r) => prop_assert_eq!(g, r),
            }
        }
    }

    /// Valid header parameters — including the unbounded-queue
    /// sentinel — round-trip exactly. The horizon is drawn below
    /// `poll_ns × MAX_POLLS`, the most a valid header may declare.
    #[test]
    fn headers_round_trip(
        gateways in 1u32..10_000,
        cap_raw in 1usize..1_000_001,
        poll_ns in 1u64..u64::MAX / 4,
        stale_ns in 1u64..u64::MAX / 4,
        horizon_raw in any::<u64>(),
        seed in any::<u64>(),
        devices in any::<u64>(),
    ) {
        let horizon_ns = horizon_raw % poll_ns.saturating_mul(MAX_POLLS);
        // The top of the range doubles as the None (unbounded) case.
        let h = WcapHeader {
            gateways,
            queue_capacity: (cap_raw != 1_000_000).then_some(cap_raw),
            poll_every: Duration::from_nanos(poll_ns),
            stale_after: Duration::from_nanos(stale_ns),
            horizon: Instant::from_nanos(horizon_ns),
            seed,
            devices,
        };
        let mut wire = Vec::new();
        WireRecord::Header(h.clone()).encode(&mut wire);
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let body = dec.next_record().unwrap().unwrap();
        prop_assert_eq!(WireRecord::decode(body).unwrap(), WireRecord::Header(h));
    }
}

fn header() -> WcapHeader {
    WcapHeader {
        gateways: 3,
        queue_capacity: Some(1024),
        poll_every: Duration::from_secs(5),
        stale_after: Duration::from_secs(120),
        horizon: Instant::from_secs(330),
        seed: 42,
        devices: 150,
    }
}

/// `h` must decode to the typed `err`, and a daemon served `h` must
/// count one stream error and establish no session — never panic.
fn assert_refused(h: WcapHeader, err: WireError) {
    let mut wire = Vec::new();
    WireRecord::Header(h).encode(&mut wire);
    assert_eq!(WireRecord::decode(&wire[4..]), Err(err));
    let mut daemon = Daemon::new(DaemonOptions::default(), None).unwrap();
    assert!(
        daemon.serve_reader(&wire[..]).is_err(),
        "no session to drain"
    );
    assert_eq!(daemon.state().lock().unwrap().stream_errors, 1);
}

#[test]
fn an_empty_record_body_is_a_typed_error() {
    assert_eq!(WireRecord::decode(&[]), Err(WireError::Empty));
}

#[test]
fn a_header_without_gateways_is_refused() {
    // A lane-less cluster must never be built under the daemon's state lock.
    let h = WcapHeader {
        gateways: 0,
        ..header()
    };
    assert_refused(h, WireError::NoGateways);
}

#[test]
fn a_header_beyond_the_lane_cap_is_refused() {
    let h = WcapHeader {
        gateways: MAX_GATEWAYS + 1,
        ..header()
    };
    assert_refused(h, WireError::TooManyGateways(MAX_GATEWAYS + 1));
}

#[test]
fn a_header_with_a_zero_poll_cadence_is_refused() {
    // A zero cadence would poll forever at t = 0.
    let h = WcapHeader {
        poll_every: Duration::from_nanos(0),
        ..header()
    };
    let mut wire = Vec::new();
    WireRecord::Header(h.clone()).encode(&mut wire);
    assert!(matches!(
        replay_capture(&wire, false, 1),
        Err(ReplayError::Wire(WireError::ZeroPollEvery))
    ));
    assert_refused(h, WireError::ZeroPollEvery);
}

#[test]
fn a_header_with_too_many_polls_is_refused() {
    // A 1 ns cadence to the end of time: the daemon would poll ~1.8e19
    // times before it could report.
    let h = WcapHeader {
        poll_every: Duration::from_nanos(1),
        horizon: Instant::from_nanos(u64::MAX),
        ..header()
    };
    assert_refused(h, WireError::TooManyPolls(u64::MAX));
}

#[test]
fn a_header_with_a_zero_queue_capacity_is_refused() {
    // A zero-capacity lane panics in `ReportQueue::bounded`; on the TCP
    // path that panic would poison the daemon's state lock.
    let h = WcapHeader {
        queue_capacity: Some(0),
        ..header()
    };
    assert_refused(h, WireError::ZeroQueueCapacity);
}
