//! Length-prefixed record framing for the gatewayd wire protocol and
//! the `.wcap` capture format.
//!
//! A record on the wire is a little-endian `u32` byte length followed
//! by that many payload bytes. The length must be in
//! `1..=MAX_RECORD_LEN`: zero-length records and oversize records are
//! protocol errors, rejected with typed [`CodecError`]s — never a
//! panic, never a silent skip (a desynchronized length prefix would
//! otherwise misparse every following byte).
//!
//! [`FrameDecoder`] is the incremental half: bytes arrive in whatever
//! chunks the transport hands over (a TCP read can split a record
//! anywhere, including mid-length-prefix) and complete records come
//! out. Torn reads simply resume on the next [`push`](FrameDecoder::push);
//! the property tests in `tests/codec_props.rs` drive arbitrary
//! payloads through arbitrary chunkings and require byte identity.

use std::fmt;

/// Upper bound on one record's payload, bytes. Far above any 802.11
/// beacon this workspace emits (the MTU-bounded frame is < 2.5 KiB);
/// the bound exists so a corrupt or adversarial length prefix cannot
/// make the decoder buffer gigabytes.
pub const MAX_RECORD_LEN: usize = 1 << 20;

/// Framing-layer protocol errors. All are fatal for the stream: after
/// a bad length prefix there is no way to resynchronize, so the
/// decoder latches the error and the transport must drop the
/// connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// A record declared a zero-byte payload.
    ZeroLength,
    /// A record declared a payload larger than [`MAX_RECORD_LEN`].
    Oversize {
        /// The declared length.
        len: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::ZeroLength => write!(f, "zero-length record"),
            CodecError::Oversize { len } => {
                write!(f, "record of {len} bytes exceeds max {MAX_RECORD_LEN}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Append one length-prefixed record to `out`.
///
/// # Panics
/// If `payload` is empty or longer than [`MAX_RECORD_LEN`] — encoders
/// own their payloads, so an invalid one is a caller bug, not a
/// runtime condition.
pub fn encode_record(out: &mut Vec<u8>, payload: &[u8]) {
    assert!(!payload.is_empty(), "zero-length record");
    assert!(
        payload.len() <= MAX_RECORD_LEN,
        "record of {} bytes exceeds max {MAX_RECORD_LEN}",
        payload.len()
    );
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Incremental record decoder: push transport chunks in, pull complete
/// records out. Partial records (torn anywhere, including inside the
/// length prefix) are buffered and resume on the next push.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed; compacted lazily.
    read: usize,
    /// A framing error is unrecoverable — latch it so every subsequent
    /// call reports the same condition.
    poisoned: Option<CodecError>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Buffer a transport chunk. A record may be split across chunks
    /// anywhere.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.poisoned.is_some() {
            return;
        }
        // Compact before growing: keeps the buffer bounded by one
        // in-flight record plus one transport chunk.
        if self.read > 0 && self.read >= self.buf.len() / 2 {
            self.buf.drain(..self.read);
            self.read = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pull the next complete record, if one is buffered. The body is
    /// lent out of the decoder's buffer until the next call, so pulling
    /// a record copies nothing; a caller that keeps the bytes copies
    /// them itself.
    ///
    /// `Ok(None)` means "need more bytes" (a torn record resumes on the
    /// next [`push`](FrameDecoder::push)); `Err` means the stream is
    /// desynchronized beyond recovery and stays latched.
    pub fn next_record(&mut self) -> Result<Option<&[u8]>, CodecError> {
        if let Some(e) = self.poisoned {
            return Err(e);
        }
        let pending = &self.buf[self.read..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
        if len == 0 {
            self.poisoned = Some(CodecError::ZeroLength);
            return Err(CodecError::ZeroLength);
        }
        if len > MAX_RECORD_LEN {
            let e = CodecError::Oversize { len };
            self.poisoned = Some(e);
            return Err(e);
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let start = self.read + 4;
        self.read = start + len;
        Ok(Some(&self.buf[start..start + len]))
    }

    /// Bytes buffered but not yet consumed as records.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.read
    }

    /// Whether a framing error has latched.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_records_across_torn_chunks() {
        let mut wire = Vec::new();
        encode_record(&mut wire, b"alpha");
        encode_record(&mut wire, &[0u8; 300]);
        encode_record(&mut wire, b"z");
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        // One byte at a time: every possible tear point.
        for &b in &wire {
            dec.push(&[b]);
            while let Some(r) = dec.next_record().unwrap() {
                got.push(r.to_vec());
            }
        }
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], b"alpha");
        assert_eq!(got[1], vec![0u8; 300]);
        assert_eq!(got[2], b"z");
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn zero_and_oversize_lengths_are_typed_errors_and_latch() {
        let mut dec = FrameDecoder::new();
        dec.push(&0u32.to_le_bytes());
        assert_eq!(dec.next_record(), Err(CodecError::ZeroLength));
        assert_eq!(dec.next_record(), Err(CodecError::ZeroLength));
        assert!(dec.is_poisoned());

        let mut dec = FrameDecoder::new();
        dec.push(&(MAX_RECORD_LEN as u32 + 1).to_le_bytes());
        assert_eq!(
            dec.next_record(),
            Err(CodecError::Oversize {
                len: MAX_RECORD_LEN + 1
            })
        );
    }
}
