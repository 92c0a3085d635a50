//! The gatewayd record vocabulary, shared between the live wire
//! protocol and the `.wcap` capture file format.
//!
//! Both are the same stream of [`codec`](crate::codec) length-prefixed
//! records; the first body byte is a tag:
//!
//! | tag | record | body |
//! |-----|--------|------|
//! | `0x00` | [`WcapHeader`] | magic `WCAP`, schema version, world parameters |
//! | `0x01` | [`LaneFrame`] | lane, arrival stamp, radio, RSSI/SNR bits, raw 802.11 frame bytes |
//! | `0x02` | `Advance` | virtual-time watermark |
//! | `0x03` | `Shutdown` | empty |
//!
//! A capture file is `Header` followed by `Frame`s; a feeder can
//! stream those same bytes down a socket verbatim, append an `Advance`
//! to the horizon and a `Shutdown`, and the daemon replays the run.
//! All integers are little-endian; time is nanoseconds of simulated
//! time (`wile_radio::time`); RSSI/SNR travel as `f64` bit patterns so
//! the replay is bit-exact, never "close".

use crate::codec::{encode_record, CodecError};
use std::fmt;
use std::sync::Arc;
use wile_radio::medium::{RadioId, RxFrame};
use wile_radio::time::{Duration, Instant};

/// Capture-file magic, first bytes of every header record body.
pub const WCAP_MAGIC: [u8; 4] = *b"WCAP";
/// Schema version this build writes and accepts.
pub const WCAP_VERSION: u16 = 1;

/// Most cluster lanes a header may declare. A replay core allocates
/// its per-lane state up front, so this bound keeps a hostile header
/// from sizing that allocation (the largest scenario uses 100 lanes).
pub const MAX_GATEWAYS: u32 = 65_536;

/// Most polls a header's poll train may take. The daemon runs every
/// poll from `poll_every` through `horizon` before it reports, so this
/// bound keeps a hostile header (a 1 ns cadence to a `u64::MAX` ns
/// horizon is ~1.8e19 polls) from spinning it forever; 2^20 is over
/// 2,800× the 366 polls of the longest shipped run.
pub const MAX_POLLS: u64 = 1 << 20;

/// Sentinel for "unbounded queue" in the header's capacity field.
const UNBOUNDED: u64 = u64::MAX;

const TAG_HEADER: u8 = 0x00;
const TAG_FRAME: u8 = 0x01;
const TAG_ADVANCE: u8 = 0x02;
const TAG_SHUTDOWN: u8 = 0x03;

/// Everything a replay needs to rebuild the cluster the capture was
/// recorded against: the world parameters that shape the poll train
/// and the pipeline, plus provenance (`seed`, `devices`) for humans
/// and reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WcapHeader {
    /// Cluster lane count.
    pub gateways: u32,
    /// Per-lane report queue bound (`None` = unbounded).
    pub queue_capacity: Option<usize>,
    /// Cluster poll cadence.
    pub poll_every: Duration,
    /// Stale-device eviction horizon.
    pub stale_after: Duration,
    /// Final poll instant (scenario duration + one beacon period).
    pub horizon: Instant,
    /// World seed the capture was recorded from (provenance).
    pub seed: u64,
    /// Device count (provenance).
    pub devices: u64,
}

/// One captured frame: which lane's radio heard it, plus the byte-
/// exact [`RxFrame`] (arrival stamp, source radio, RSSI/SNR, frame
/// bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct LaneFrame {
    /// Receiving cluster lane.
    pub lane: u32,
    /// The frame as the radio delivered it.
    pub frame: RxFrame,
}

/// A decoded wire/capture record.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRecord {
    /// Stream preamble: world parameters (always first in a `.wcap`).
    Header(WcapHeader),
    /// One captured/ingested frame.
    Frame(LaneFrame),
    /// Virtual-time watermark: run every poll due at or before `to`.
    Advance {
        /// The watermark instant.
        to: Instant,
    },
    /// Graceful end of stream: drain, report, exit.
    Shutdown,
}

/// Record-layer protocol errors (a layer above [`CodecError`]: the
/// framing was fine, the body was not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Framing-layer failure.
    Codec(CodecError),
    /// A record body with no tag byte.
    Empty,
    /// First body byte names no known record type.
    UnknownTag(u8),
    /// Body shorter than the fixed fields its tag requires.
    Truncated {
        /// The record tag.
        tag: u8,
        /// The body length seen.
        len: usize,
    },
    /// Header record without the `WCAP` magic.
    BadMagic,
    /// Header schema version this build does not speak.
    BadVersion(u16),
    /// Header declaring a cluster with no lanes.
    NoGateways,
    /// Header declaring more lanes than [`MAX_GATEWAYS`].
    TooManyGateways(u32),
    /// Header declaring a zero poll cadence (the poll train would
    /// never advance).
    ZeroPollEvery,
    /// Header whose poll train takes more than [`MAX_POLLS`] polls.
    TooManyPolls(u64),
    /// Header declaring a zero-capacity report queue (every lane would
    /// drop every report).
    ZeroQueueCapacity,
    /// A frame record with zero frame bytes (no such 802.11 frame).
    EmptyFrame,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Codec(e) => write!(f, "framing: {e}"),
            WireError::Empty => write!(f, "empty record body"),
            WireError::UnknownTag(t) => write!(f, "unknown record tag {t:#04x}"),
            WireError::Truncated { tag, len } => {
                write!(f, "record tag {tag:#04x} truncated at {len} bytes")
            }
            WireError::BadMagic => write!(f, "capture header lacks WCAP magic"),
            WireError::BadVersion(v) => {
                write!(
                    f,
                    "capture schema version {v} (this build speaks {WCAP_VERSION})"
                )
            }
            WireError::NoGateways => write!(f, "capture header declares zero gateways"),
            WireError::TooManyGateways(n) => {
                write!(
                    f,
                    "capture header declares {n} gateways (at most {MAX_GATEWAYS})"
                )
            }
            WireError::ZeroPollEvery => write!(f, "capture header declares a zero poll cadence"),
            WireError::TooManyPolls(n) => {
                write!(f, "capture header declares {n} polls (at most {MAX_POLLS})")
            }
            WireError::ZeroQueueCapacity => {
                write!(f, "capture header declares a zero queue capacity")
            }
            WireError::EmptyFrame => write!(f, "frame record with zero frame bytes"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

impl WireRecord {
    /// Append this record, length-prefixed, to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut body = Vec::new();
        match self {
            WireRecord::Header(h) => {
                body.push(TAG_HEADER);
                body.extend_from_slice(&WCAP_MAGIC);
                body.extend_from_slice(&WCAP_VERSION.to_le_bytes());
                body.extend_from_slice(&h.gateways.to_le_bytes());
                let cap = match h.queue_capacity {
                    Some(c) => c as u64,
                    None => UNBOUNDED,
                };
                body.extend_from_slice(&cap.to_le_bytes());
                body.extend_from_slice(&h.poll_every.as_nanos().to_le_bytes());
                body.extend_from_slice(&h.stale_after.as_nanos().to_le_bytes());
                body.extend_from_slice(&h.horizon.as_nanos().to_le_bytes());
                body.extend_from_slice(&h.seed.to_le_bytes());
                body.extend_from_slice(&h.devices.to_le_bytes());
            }
            WireRecord::Frame(f) => {
                body.push(TAG_FRAME);
                body.extend_from_slice(&f.lane.to_le_bytes());
                body.extend_from_slice(&f.frame.at.as_nanos().to_le_bytes());
                body.extend_from_slice(&f.frame.from.0.to_le_bytes());
                body.extend_from_slice(&f.frame.rssi_dbm.to_bits().to_le_bytes());
                body.extend_from_slice(&f.frame.snr_db.to_bits().to_le_bytes());
                body.extend_from_slice(&f.frame.bytes);
            }
            WireRecord::Advance { to } => {
                body.push(TAG_ADVANCE);
                body.extend_from_slice(&to.as_nanos().to_le_bytes());
            }
            WireRecord::Shutdown => body.push(TAG_SHUTDOWN),
        }
        encode_record(out, &body);
    }

    /// Decode one record body (as produced by
    /// [`FrameDecoder::next_record`](crate::codec::FrameDecoder::next_record)).
    /// A header must declare `1..=MAX_GATEWAYS` lanes, a positive poll
    /// cadence, at most [`MAX_POLLS`] polls to its horizon and a nonzero
    /// queue capacity, so a decoded header always builds a replay core
    /// that finishes.
    pub fn decode(body: &[u8]) -> Result<WireRecord, WireError> {
        let (&tag, rest) = body.split_first().ok_or(WireError::Empty)?;
        match tag {
            TAG_HEADER => {
                const FIXED: usize = 4 + 2 + 4 + 8 * 6;
                if rest.len() < FIXED {
                    return Err(WireError::Truncated {
                        tag,
                        len: body.len(),
                    });
                }
                if rest[..4] != WCAP_MAGIC {
                    return Err(WireError::BadMagic);
                }
                let version = u16::from_le_bytes([rest[4], rest[5]]);
                if version != WCAP_VERSION {
                    return Err(WireError::BadVersion(version));
                }
                let gateways = u32::from_le_bytes(rest[6..10].try_into().unwrap());
                if gateways == 0 {
                    return Err(WireError::NoGateways);
                }
                if gateways > MAX_GATEWAYS {
                    return Err(WireError::TooManyGateways(gateways));
                }
                let poll_every = read_u64(rest, 18);
                if poll_every == 0 {
                    return Err(WireError::ZeroPollEvery);
                }
                let horizon = read_u64(rest, 34);
                // The train polls at every multiple of the cadence short
                // of the horizon, then on it, and always at least once.
                let polls = horizon.div_ceil(poll_every).max(1);
                if polls > MAX_POLLS {
                    return Err(WireError::TooManyPolls(polls));
                }
                let cap = read_u64(rest, 10);
                if cap == 0 {
                    return Err(WireError::ZeroQueueCapacity);
                }
                Ok(WireRecord::Header(WcapHeader {
                    gateways,
                    queue_capacity: (cap != UNBOUNDED).then_some(cap as usize),
                    poll_every: Duration::from_nanos(poll_every),
                    stale_after: Duration::from_nanos(read_u64(rest, 26)),
                    horizon: Instant::from_nanos(horizon),
                    seed: read_u64(rest, 42),
                    devices: read_u64(rest, 50),
                }))
            }
            TAG_FRAME => {
                const FIXED: usize = 4 + 8 + 4 + 8 + 8;
                if rest.len() < FIXED {
                    return Err(WireError::Truncated {
                        tag,
                        len: body.len(),
                    });
                }
                let bytes = &rest[FIXED..];
                if bytes.is_empty() {
                    return Err(WireError::EmptyFrame);
                }
                Ok(WireRecord::Frame(LaneFrame {
                    lane: u32::from_le_bytes(rest[..4].try_into().unwrap()),
                    frame: RxFrame {
                        at: Instant::from_nanos(read_u64(rest, 4)),
                        from: RadioId(u32::from_le_bytes(rest[12..16].try_into().unwrap())),
                        rssi_dbm: f64::from_bits(read_u64(rest, 16)),
                        snr_db: f64::from_bits(read_u64(rest, 24)),
                        bytes: Arc::from(bytes),
                    },
                }))
            }
            TAG_ADVANCE => {
                if rest.len() < 8 {
                    return Err(WireError::Truncated {
                        tag,
                        len: body.len(),
                    });
                }
                Ok(WireRecord::Advance {
                    to: Instant::from_nanos(read_u64(rest, 0)),
                })
            }
            TAG_SHUTDOWN => Ok(WireRecord::Shutdown),
            other => Err(WireError::UnknownTag(other)),
        }
    }
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::FrameDecoder;

    fn sample_header() -> WcapHeader {
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

    #[test]
    fn records_round_trip() {
        let frame = LaneFrame {
            lane: 2,
            frame: RxFrame {
                at: Instant::from_nanos(123_456_789),
                from: RadioId(9),
                rssi_dbm: -61.25,
                snr_db: 18.5,
                bytes: Arc::from(&b"\xde\xad\xbe\xef"[..]),
            },
        };
        let records = vec![
            WireRecord::Header(sample_header()),
            WireRecord::Frame(frame),
            WireRecord::Advance {
                to: Instant::from_secs(330),
            },
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
        assert_eq!(got, records);
    }

    #[test]
    fn unbounded_queue_round_trips() {
        let mut h = sample_header();
        h.queue_capacity = None;
        let mut wire = Vec::new();
        WireRecord::Header(h.clone()).encode(&mut wire);
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let body = dec.next_record().unwrap().unwrap();
        assert_eq!(WireRecord::decode(body).unwrap(), WireRecord::Header(h));
    }

    #[test]
    fn bad_bodies_are_typed_errors() {
        assert_eq!(
            WireRecord::decode(&[0x7f]),
            Err(WireError::UnknownTag(0x7f))
        );
        assert_eq!(
            WireRecord::decode(&[TAG_ADVANCE, 1, 2]),
            Err(WireError::Truncated {
                tag: TAG_ADVANCE,
                len: 3
            })
        );
        // A frame with the fixed fields but no frame bytes.
        let mut body = vec![TAG_FRAME];
        body.extend_from_slice(&[0u8; 32]);
        assert_eq!(WireRecord::decode(&body), Err(WireError::EmptyFrame));
        // Header with wrong magic.
        let mut body = vec![TAG_HEADER];
        body.extend_from_slice(b"NOPE");
        body.extend_from_slice(&[0u8; 54]);
        assert_eq!(WireRecord::decode(&body), Err(WireError::BadMagic));
        // Header with a future schema version.
        let mut body = vec![TAG_HEADER];
        body.extend_from_slice(&WCAP_MAGIC);
        body.extend_from_slice(&7u16.to_le_bytes());
        body.extend_from_slice(&[0u8; 52]);
        assert_eq!(WireRecord::decode(&body), Err(WireError::BadVersion(7)));
        // Header declaring a zero-capacity report queue.
        let mut h = sample_header();
        h.queue_capacity = Some(0);
        let mut wire = Vec::new();
        WireRecord::Header(h).encode(&mut wire);
        assert_eq!(
            WireRecord::decode(&wire[4..]),
            Err(WireError::ZeroQueueCapacity)
        );
    }

    #[test]
    fn the_poll_cap_is_inclusive() {
        let decode = |poll_ns: u64, horizon_ns: u64| {
            let mut h = sample_header();
            h.poll_every = Duration::from_nanos(poll_ns);
            h.horizon = Instant::from_nanos(horizon_ns);
            let mut wire = Vec::new();
            WireRecord::Header(h).encode(&mut wire);
            WireRecord::decode(&wire[4..])
        };
        // 5 s cadence: the horizon at exactly MAX_POLLS cadences is the
        // last one accepted; a nanosecond more takes one more poll.
        let every = 5_000_000_000;
        assert!(decode(every, every * MAX_POLLS).is_ok());
        assert_eq!(
            decode(every, every * MAX_POLLS + 1),
            Err(WireError::TooManyPolls(MAX_POLLS + 1))
        );
        // A horizon short of the first poll still takes one.
        assert!(decode(u64::MAX, 0).is_ok());
    }
}
