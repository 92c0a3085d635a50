//! The load generator: stream a `.wcap` capture into a running daemon.
//!
//! A capture is already a valid wire stream (same codec, same record
//! vocabulary), so feeding is re-encoding record by record — byte-
//! identical to the recording — with an `Advance` watermark to the
//! horizon and a `Shutdown` appended so the daemon drains and reports.
//!
//! Two paces:
//!
//! * [`Pace::MaxRate`] — as fast as the transport accepts; this is the
//!   sustained-throughput benchmark mode.
//! * [`Pace::WallClock`] — sleep out the simulated inter-frame gaps
//!   (divided by `speedup`), approximating the live deployment's
//!   arrival process. Pacing changes *when* bytes move, never what
//!   the daemon computes: the report is stamp-driven and identical
//!   under either pace.

use crate::capture::ReplayError;
use crate::codec::FrameDecoder;
use crate::wire::WireRecord;
use std::io::Write;
use wile_radio::time::Instant;

/// Feed pacing.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Stream as fast as the sink accepts.
    MaxRate,
    /// Sleep out simulated inter-frame gaps, compressed by `speedup`
    /// (1.0 = real time, 60.0 = a simulated minute per wall second).
    WallClock {
        /// Simulated-to-wall time compression factor (must be > 0).
        speedup: f64,
    },
}

/// What a feed moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedSummary {
    /// Frame records streamed.
    pub frames: u64,
    /// Total bytes written to the sink (including header, advance,
    /// shutdown).
    pub bytes: u64,
}

/// Stream `capture` into `sink` record by record, append an `Advance`
/// to the capture's horizon and a `Shutdown`, and flush.
pub fn feed_capture(
    capture: &[u8],
    sink: &mut dyn Write,
    pace: Pace,
) -> Result<FeedSummary, ReplayError> {
    let mut dec = FrameDecoder::new();
    dec.push(capture);
    let mut scratch = Vec::new();
    let mut frames = 0u64;
    let mut bytes = 0u64;
    let mut horizon: Option<Instant> = None;
    let mut prev_at: Option<Instant> = None;
    let mut shutdown_sent = false;
    let mut emit =
        |r: &WireRecord, scratch: &mut Vec<u8>, bytes: &mut u64| -> Result<(), ReplayError> {
            scratch.clear();
            r.encode(scratch);
            sink.write_all(scratch)?;
            *bytes += scratch.len() as u64;
            Ok(())
        };
    while let Some(body) = dec.next_record()? {
        let record = WireRecord::decode(body)?;
        match &record {
            WireRecord::Header(h) => {
                if horizon.is_some() {
                    return Err(ReplayError::UnexpectedHeader);
                }
                horizon = Some(h.horizon);
            }
            WireRecord::Frame(f) => {
                if horizon.is_none() {
                    return Err(ReplayError::MissingHeader);
                }
                if let Pace::WallClock { speedup } = pace {
                    assert!(speedup > 0.0, "speedup must be positive");
                    if let Some(prev) = prev_at {
                        let gap_ns = f.frame.at.as_nanos().saturating_sub(prev.as_nanos());
                        let wall_ns = (gap_ns as f64 / speedup) as u64;
                        if wall_ns > 0 {
                            std::thread::sleep(std::time::Duration::from_nanos(wall_ns));
                        }
                    }
                    prev_at = Some(f.frame.at);
                }
                frames += 1;
            }
            WireRecord::Advance { .. } => {}
            WireRecord::Shutdown => shutdown_sent = true,
        }
        emit(&record, &mut scratch, &mut bytes)?;
        if shutdown_sent {
            break;
        }
    }
    if dec.buffered() > 0 {
        return Err(ReplayError::TrailingBytes(dec.buffered()));
    }
    let horizon = horizon.ok_or(ReplayError::MissingHeader)?;
    if !shutdown_sent {
        emit(
            &WireRecord::Advance { to: horizon },
            &mut scratch,
            &mut bytes,
        )?;
        emit(&WireRecord::Shutdown, &mut scratch, &mut bytes)?;
    }
    sink.flush().map_err(ReplayError::Io)?;
    Ok(FeedSummary { frames, bytes })
}
