//! `.wcap` capture files: record a scenario's exact per-lane frame
//! stream, replay it through [`GatewaydCore`], get the identical run.
//!
//! The capture point is the scenario [`FrameTap`] — it observes every
//! frame a cluster lane pulls off the medium, pre-admission and
//! pre-fault, stamped with its arrival instant. A capture is therefore
//! a complete substitute for the radio side of a run: feed it back
//! through the same pipeline parameters (carried in the header) and
//! every poll batch, election, counter, and delivery digest reproduces
//! byte for byte. `tests/gatewayd_diff.rs` asserts exactly that
//! against `scenarios::metro` across seeds.

use crate::codec::FrameDecoder;
use crate::core::{GatewaydConfig, GatewaydCore, GatewaydReport, IngestError};
use crate::wire::{LaneFrame, WcapHeader, WireError, WireRecord};
use std::cell::RefCell;
use std::fmt;
use std::io::{self, Write};
use std::rc::Rc;
use wile_radio::medium::RxFrame;
use wile_scenarios::chaos::{run_chaos, ChaosConfig, ChaosReport};
use wile_scenarios::metro::{run_metro_with, FrameTap, MetroConfig, MetroReport};
use wile_telemetry::Telemetry;

/// The header a metro (or chaos, via its metro half) configuration
/// produces: the pipeline parameters a replay must reuse, plus
/// provenance.
pub fn metro_header(cfg: &MetroConfig) -> WcapHeader {
    WcapHeader {
        gateways: cfg.gateways as u32,
        queue_capacity: cfg.queue_capacity,
        poll_every: cfg.poll_every,
        stale_after: cfg.stale_after,
        horizon: cfg.poll_train().horizon(),
        seed: cfg.seed,
        devices: cfg.devices as u64,
    }
}

/// Streaming `.wcap` writer: header up front, one frame record per
/// tap firing. IO errors latch (the tap has nowhere to return them)
/// and surface from [`finish`](CaptureWriter::finish).
pub struct CaptureWriter<W: Write> {
    w: W,
    scratch: Vec<u8>,
    frames: u64,
    error: Option<io::Error>,
}

impl<W: Write> CaptureWriter<W> {
    /// Start a capture: writes the header record immediately.
    pub fn new(w: W, header: &WcapHeader) -> Self {
        let mut cw = CaptureWriter {
            w,
            scratch: Vec::new(),
            frames: 0,
            error: None,
        };
        cw.record(&WireRecord::Header(header.clone()));
        cw
    }

    /// Append one frame record (clones the frame's byte `Arc`, not the
    /// bytes).
    pub fn frame(&mut self, lane: usize, f: &RxFrame) {
        self.record(&WireRecord::Frame(LaneFrame {
            lane: lane as u32,
            frame: f.clone(),
        }));
        self.frames += 1;
    }

    fn record(&mut self, r: &WireRecord) {
        if self.error.is_some() {
            return;
        }
        self.scratch.clear();
        r.encode(&mut self.scratch);
        if let Err(e) = self.w.write_all(&self.scratch) {
            self.error = Some(e);
        }
    }

    /// Frames written so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Flush and close, surfacing any latched IO error. Returns the
    /// inner writer and the frame count.
    pub fn finish(mut self) -> io::Result<(W, u64)> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.w.flush()?;
        Ok((self.w, self.frames))
    }
}

/// Build the boxed scenario tap feeding a shared capture writer. The
/// writer comes back out of the `Rc` (via [`finish_shared`]) after the
/// runner drops its sink (and with it the tap's clone).
pub fn capture_tap<W: Write + 'static>(writer: &Rc<RefCell<CaptureWriter<W>>>) -> FrameTap {
    let w = Rc::clone(writer);
    Box::new(move |lane, f| w.borrow_mut().frame(lane, f))
}

fn unwrap_writer<W: Write>(writer: Rc<RefCell<CaptureWriter<W>>>) -> CaptureWriter<W> {
    Rc::try_unwrap(writer)
        .map(RefCell::into_inner)
        .unwrap_or_else(|_| unreachable!("runner dropped its tap with the sink"))
}

/// Reclaim a shared capture writer after the scenario runner returned
/// (the runner's sink — and the tap's `Rc` clone — is dropped by
/// then), flushing and surfacing any latched IO error.
pub fn finish_shared<W: Write>(writer: Rc<RefCell<CaptureWriter<W>>>) -> io::Result<(W, u64)> {
    unwrap_writer(writer).finish()
}

/// Run the metro scenario with a `.wcap` recorder attached, writing
/// the capture to `w`. The report is byte-identical to an untapped
/// [`run_metro`](wile_scenarios::metro::run_metro) — taps observe only.
pub fn capture_metro<W: Write + 'static>(
    cfg: &MetroConfig,
    workers: usize,
    w: W,
) -> io::Result<(MetroReport, W, u64)> {
    let writer = Rc::new(RefCell::new(CaptureWriter::new(w, &metro_header(cfg))));
    let mut tel = Telemetry::off();
    let report = run_metro_with(cfg, workers, &mut tel, Some(capture_tap(&writer)));
    let (w, frames) = unwrap_writer(writer).finish()?;
    Ok((report, w, frames))
}

/// Run the chaos campaign with a `.wcap` recorder attached. The tap
/// fires on the raw air stream — including frames a crashed lane never
/// ingests — so the capture documents offered load, while the chaos
/// report's fault accounting stays the authority on what survived.
pub fn capture_chaos<W: Write + 'static>(
    cfg: &ChaosConfig,
    workers: usize,
    w: W,
) -> io::Result<(ChaosReport, W, u64)> {
    let writer = Rc::new(RefCell::new(CaptureWriter::new(
        w,
        &metro_header(&cfg.metro),
    )));
    let mut tel = Telemetry::off();
    let report = run_chaos(cfg, workers, &mut tel, Some(capture_tap(&writer)));
    let (w, frames) = unwrap_writer(writer).finish()?;
    Ok((report, w, frames))
}

/// Why a capture stream failed to parse or replay.
#[derive(Debug)]
pub enum ReplayError {
    /// Record or framing layer failure.
    Wire(WireError),
    /// The stream did not start with a header record.
    MissingHeader,
    /// A second header mid-stream.
    UnexpectedHeader,
    /// The core refused a frame (byte-identity is already lost).
    Ingest(IngestError),
    /// Bytes left over after the last complete record.
    TrailingBytes(usize),
    /// Reading the capture source failed.
    Io(io::Error),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Wire(e) => write!(f, "wire: {e}"),
            ReplayError::MissingHeader => write!(f, "capture does not start with a WCAP header"),
            ReplayError::UnexpectedHeader => write!(f, "second header record mid-stream"),
            ReplayError::Ingest(e) => write!(f, "ingest: {e}"),
            ReplayError::TrailingBytes(n) => write!(f, "{n} trailing bytes after last record"),
            ReplayError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<WireError> for ReplayError {
    fn from(e: WireError) -> Self {
        ReplayError::Wire(e)
    }
}

impl From<crate::codec::CodecError> for ReplayError {
    fn from(e: crate::codec::CodecError) -> Self {
        ReplayError::Wire(WireError::Codec(e))
    }
}

impl From<io::Error> for ReplayError {
    fn from(e: io::Error) -> Self {
        ReplayError::Io(e)
    }
}

/// Parse a complete capture byte stream into its header and frames.
/// `Advance` records are tolerated (they carry no frames); `Shutdown`
/// ends the stream.
pub fn read_capture(bytes: &[u8]) -> Result<(WcapHeader, Vec<LaneFrame>), ReplayError> {
    let mut dec = FrameDecoder::new();
    dec.push(bytes);
    let mut header = None;
    let mut frames = Vec::new();
    while let Some(body) = dec.next_record()? {
        match WireRecord::decode(body)? {
            WireRecord::Header(h) if header.is_none() => header = Some(h),
            WireRecord::Header(_) => return Err(ReplayError::UnexpectedHeader),
            WireRecord::Frame(f) if header.is_some() => frames.push(f),
            WireRecord::Advance { .. } if header.is_some() => {}
            WireRecord::Shutdown if header.is_some() => break,
            _ => return Err(ReplayError::MissingHeader),
        }
    }
    if dec.buffered() > 0 {
        return Err(ReplayError::TrailingBytes(dec.buffered()));
    }
    header
        .map(|h| (h, frames))
        .ok_or(ReplayError::MissingHeader)
}

/// Replay a complete capture through a fresh [`GatewaydCore`] and
/// return the finished report. With `keep_deliveries` the report
/// carries the full delivery stream for `==` against the recording
/// run's; otherwise the digest is the witness.
pub fn replay_capture(
    bytes: &[u8],
    keep_deliveries: bool,
    workers: usize,
) -> Result<GatewaydReport, ReplayError> {
    let (header, frames) = read_capture(bytes)?;
    let mut cfg = GatewaydConfig::from_header(&header);
    cfg.keep_deliveries = keep_deliveries;
    cfg.workers = workers;
    let mut core = GatewaydCore::new(cfg);
    let mut out = Vec::new();
    for f in frames {
        core.offer(f.lane, f.frame, &mut out)
            .map_err(ReplayError::Ingest)?;
    }
    Ok(core.finish(&mut out))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The capture round-trip: record a smoke metro run, read the file
    /// back, and require the header and every frame to survive the
    /// encode/decode byte-exactly (stamps, RSSI bits, frame bytes).
    #[test]
    fn wcap_round_trips_the_recorded_stream() {
        let cfg = MetroConfig::smoke(42);
        let mut recorded: Vec<(u32, RxFrame)> = Vec::new();
        let shadow = Rc::new(RefCell::new(Vec::new()));
        let shadow_tap = Rc::clone(&shadow);
        let writer = Rc::new(RefCell::new(CaptureWriter::new(
            Vec::new(),
            &metro_header(&cfg),
        )));
        let w = Rc::clone(&writer);
        let mut tel = Telemetry::off();
        run_metro_with(
            &cfg,
            1,
            &mut tel,
            Some(Box::new(move |lane, f: &RxFrame| {
                shadow_tap.borrow_mut().push((lane as u32, f.clone()));
                w.borrow_mut().frame(lane, f);
            })),
        );
        recorded.extend(shadow.borrow_mut().drain(..));
        let (bytes, frames) = unwrap_writer(writer).finish().unwrap();
        assert_eq!(frames as usize, recorded.len());
        assert!(frames > 0, "smoke metro must hear frames");

        let (header, parsed) = read_capture(&bytes).unwrap();
        assert_eq!(header, metro_header(&cfg));
        assert_eq!(parsed.len(), recorded.len());
        for (p, (lane, f)) in parsed.iter().zip(&recorded) {
            assert_eq!(p.lane, *lane);
            assert_eq!(&p.frame, f);
        }
    }

    /// Chaos capture: same hook, fault-ridden world; the stream still
    /// parses end to end and the tapped report equals an untapped run.
    #[test]
    fn chaos_capture_records_offered_load() {
        let cfg = ChaosConfig::smoke(7);
        let (report, buf, frames) = capture_chaos(&cfg, 1, Vec::new()).unwrap();
        let untapped = run_chaos(&cfg, 1, &mut Telemetry::off(), None);
        assert_eq!(report, untapped);
        let (header, parsed) = read_capture(&buf).unwrap();
        assert_eq!(header.gateways as usize, cfg.metro.gateways);
        assert_eq!(parsed.len() as u64, frames);
        assert!(frames > 0);
    }
}
