//! The `gatewayd-replay` input: a recorded metro frame stream with an
//! `Advance` watermark at each poll boundary, served from memory.
//!
//! The capture itself is left as recorded; the watermarks are kept as
//! insertion points beside it. [`WatermarkReader`] serves the bytes the
//! way a file would, except that it hands each watermark over in a read
//! of its own. The daemon runs a poll when it applies a watermark and
//! reads again once the poll's deliveries are out, so the gap between
//! handing a watermark over and the daemon's next read is that poll's
//! latency. The reader laps a [`Clock`] just before it hands a watermark
//! over and as the next read begins, so the latency is one stretch of
//! the clock, reported at the reference's nominal speed.

use crate::speed::Clock;
use std::io::{self, Read};
use wile_gatewayd::capture::ReplayError;
use wile_gatewayd::codec::FrameDecoder;
use wile_gatewayd::{WcapHeader, WireRecord};
use wile_radio::time::Instant;

/// Read size for walking a capture: the daemon's own read buffer size.
pub const CHUNK: usize = 64 * 1024;

/// The poll instants of a stream: the first at `ZERO + poll_every`,
/// then every `poll_every`, the last clamped onto the horizon (the
/// metro and `GatewaydCore` schedule).
pub fn poll_train(h: &WcapHeader) -> Vec<Instant> {
    let mut polls = Vec::new();
    let mut t = Instant::ZERO + h.poll_every;
    loop {
        polls.push(t);
        if t >= h.horizon {
            return polls;
        }
        t = (t + h.poll_every).min(h.horizon);
    }
}

/// A capture plus its watermark insertion points.
pub struct Watermarked {
    bytes: Vec<u8>,
    /// `(byte offset, encoded Advance record)` in stream order; the
    /// record goes in before the byte at the offset.
    cuts: Vec<(usize, Vec<u8>)>,
    /// The capture's header record.
    pub header: WcapHeader,
    /// Frame records in the capture.
    pub frames: u64,
}

impl Watermarked {
    /// Index a raw capture: one watermark per poll, placed before the
    /// first frame stamped after that poll (a frame stamped exactly on
    /// a poll belongs to it), the rest at the end of the stream.
    pub fn new(capture: Vec<u8>) -> Result<Self, ReplayError> {
        let mut dec = FrameDecoder::new();
        let mut offset = 0;
        let mut header = None;
        let mut polls = Vec::new().into_iter().peekable();
        let mut cuts = Vec::new();
        let mut frames = 0;
        for chunk in capture.chunks(CHUNK) {
            dec.push(chunk);
            while let Some(body) = dec.next_record()? {
                match WireRecord::decode(&body)? {
                    WireRecord::Header(h) if header.is_none() => {
                        polls = poll_train(&h).into_iter().peekable();
                        header = Some(h);
                    }
                    WireRecord::Frame(f) if header.is_some() => {
                        while let Some(to) = polls.next_if(|&t| t < f.frame.at) {
                            cuts.push((offset, advance(to)));
                        }
                        frames += 1;
                    }
                    WireRecord::Header(_) => return Err(ReplayError::UnexpectedHeader),
                    _ => return Err(ReplayError::MissingHeader),
                }
                offset += 4 + body.len();
            }
        }
        if dec.buffered() > 0 {
            return Err(ReplayError::TrailingBytes(dec.buffered()));
        }
        let header = header.ok_or(ReplayError::MissingHeader)?;
        cuts.extend(polls.map(|to| (capture.len(), advance(to))));
        Ok(Watermarked {
            bytes: capture,
            cuts,
            header,
            frames,
        })
    }

    /// Watermarks in the stream (one per poll).
    pub fn watermarks(&self) -> usize {
        self.cuts.len()
    }

    /// A reader over the watermarked stream, from the start.
    pub fn reader(&self) -> WatermarkReader<'_> {
        WatermarkReader {
            s: self,
            pos: 0,
            cut: 0,
            handed: false,
            clock: Clock::start(),
            poll_ms: Vec::new(),
        }
    }
}

fn advance(to: Instant) -> Vec<u8> {
    let mut rec = Vec::new();
    WireRecord::Advance { to }.encode(&mut rec);
    rec
}

/// Serves a [`Watermarked`] stream and times each watermark's poll.
pub struct WatermarkReader<'a> {
    s: &'a Watermarked,
    pos: usize,
    cut: usize,
    /// Whether the last read handed a watermark over.
    handed: bool,
    /// Started with the reader; lapped around each poll.
    pub clock: Clock,
    /// Per-poll latency: watermark handed over → next read, at the
    /// nominal speed, ms.
    pub poll_ms: Vec<f64>,
}

impl Read for WatermarkReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if std::mem::take(&mut self.handed) {
            self.poll_ms.push(self.clock.lap() * 1e3);
        }
        if let Some((at, rec)) = self.s.cuts.get(self.cut) {
            if *at == self.pos {
                if buf.len() < rec.len() {
                    return Err(io::Error::other("read buffer shorter than a watermark"));
                }
                buf[..rec.len()].copy_from_slice(rec);
                self.cut += 1;
                self.clock.lap();
                self.handed = true;
                return Ok(rec.len());
            }
        }
        let end = self
            .s
            .cuts
            .get(self.cut)
            .map_or(self.s.bytes.len(), |c| c.0);
        let n = buf.len().min(end - self.pos);
        buf[..n].copy_from_slice(&self.s.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wile_gatewayd::capture::{capture_metro, read_capture, replay_capture};
    use wile_scenarios::metro::MetroConfig;

    /// The watermarked stream carries the raw capture's frames unchanged,
    /// one watermark per poll, each in a read of its own, and replays to
    /// the raw capture's digest.
    #[test]
    fn watermarked_stream_equals_raw_stream() {
        let cfg = MetroConfig::smoke(42);
        let (metro, raw, frames) = capture_metro(&cfg, 1, Vec::new()).unwrap();
        let s = Watermarked::new(raw.clone()).unwrap();
        assert_eq!(s.frames, frames);
        assert_eq!(s.watermarks(), poll_train(&s.header).len());

        let mut r = s.reader();
        let mut marked = Vec::new();
        let mut buf = vec![0u8; CHUNK];
        let mut lone_watermarks = 0;
        loop {
            let n = r.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            if n == 13
                && matches!(
                    WireRecord::decode(&buf[4..n]),
                    Ok(WireRecord::Advance { .. })
                )
            {
                lone_watermarks += 1;
            }
            marked.extend_from_slice(&buf[..n]);
        }
        assert_eq!(
            lone_watermarks,
            s.watermarks(),
            "each watermark is read alone"
        );
        assert_eq!(r.poll_ms.len(), s.watermarks());

        let (h_raw, f_raw) = read_capture(&raw).unwrap();
        let (h_marked, f_marked) = read_capture(&marked).unwrap();
        assert_eq!(h_raw, h_marked);
        assert_eq!(f_raw, f_marked);
        let digest = replay_capture(&raw, false, 1).unwrap().delivery_digest;
        assert_eq!(digest, metro.delivery_digest);
        assert_eq!(
            replay_capture(&marked, false, 1).unwrap().delivery_digest,
            digest
        );
    }
}
