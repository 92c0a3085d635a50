//! The bytes of a delivered message, shared with the frame they came in.
//!
//! A single-fragment Wi-LE message's payload is one contiguous range of
//! its beacon. The medium hands every receiver of a transmission the
//! same `Arc<[u8]>`, so the gateway keeps that range of the frame
//! instead of copying it: it moves the `Arc` out of the owned
//! [`RxFrame`](wile_radio::RxFrame) into a [`Payload`], and a heard
//! copy allocates nothing. A multi-fragment message, a decrypted one or
//! bytes from anywhere else are the same type over an `Arc` of their
//! own, so every consumer ([`Received`](crate::monitor::Received), the
//! cluster's reports and deliveries, the MAC's indications) sees one
//! representation.
//!
//! A view keeps its whole frame alive until the payload is dropped.

use crate::message::MAX_FRAGMENTS;
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A message payload: a byte range of a shared buffer. Dereferences to
/// `[u8]`; two payloads are equal when their bytes are, wherever they
/// live.
#[derive(Clone, Default)]
pub struct Payload {
    /// The buffer; `None` for the empty default, which allocates
    /// nothing (the cluster `mem::take`s payloads out of its reports).
    bytes: Option<Arc<[u8]>>,
    start: u32,
    len: u32,
}

// The `Vec<u8>` this replaced was 24 bytes; a payload is no larger.
const _: () = assert!(std::mem::size_of::<Payload>() <= 24);

impl Payload {
    /// The bytes `frame[range]`, without copying: the payload takes
    /// `frame` and keeps it alive.
    ///
    /// # Panics
    /// If `range` does not lie inside `frame`.
    pub(crate) fn view(frame: Arc<[u8]>, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= frame.len(),
            "payload range {range:?} outside a {}-byte frame",
            frame.len()
        );
        let start = u32::try_from(range.start).expect("frame offset fits u32");
        let len = u32::try_from(range.len()).expect("payload length fits u32");
        Payload {
            bytes: Some(frame),
            start,
            len,
        }
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.bytes {
            Some(b) => {
                let start = self.start as usize;
                &b[start..start + self.len as usize]
            }
            None => &[],
        }
    }
}

/// Where a message's fragment chunks sit inside their frame, in index
/// order. It holds offsets, not borrows, so the gateway can locate the
/// chunks, let go of the parsed beacon, and then move the frame into
/// the payload ([`Spans::into_payload`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Spans {
    spans: [(u32, u32); MAX_FRAGMENTS],
    count: usize,
}

impl Spans {
    /// The offsets of `chunks` in `frame`.
    ///
    /// # Panics
    /// If a chunk is not a subslice of `frame`, or there are more than
    /// [`MAX_FRAGMENTS`] chunks.
    pub(crate) fn locate(frame: &[u8], chunks: &[&[u8]]) -> Self {
        assert!(chunks.len() <= MAX_FRAGMENTS, "too many fragments");
        let base = frame.as_ptr() as usize;
        let mut spans = [(0, 0); MAX_FRAGMENTS];
        for (span, chunk) in spans.iter_mut().zip(chunks) {
            let start = (chunk.as_ptr() as usize).wrapping_sub(base);
            assert!(
                start <= frame.len() && chunk.len() <= frame.len() - start,
                "fragment chunk outside its frame"
            );
            *span = (start as u32, (start + chunk.len()) as u32);
        }
        Spans {
            spans,
            count: chunks.len(),
        }
    }

    /// The payload these spans describe in `frame`: one span is a view
    /// that takes `frame`; several are concatenated, in index order,
    /// into one new buffer.
    pub(crate) fn into_payload(self, frame: Arc<[u8]>) -> Payload {
        match self.spans[..self.count] {
            [(start, end)] => Payload::view(frame, start as usize..end as usize),
            ref spans => {
                let len = spans.iter().map(|&(s, e)| e - s).sum::<u32>() as usize;
                let mut bytes = Vec::with_capacity(len);
                for &(s, e) in spans {
                    bytes.extend_from_slice(&frame[s as usize..e as usize]);
                }
                Payload::from(bytes)
            }
        }
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl From<&[u8]> for Payload {
    /// A copy of `bytes` in a buffer of its own.
    fn from(bytes: &[u8]) -> Self {
        if bytes.is_empty() {
            return Payload::default();
        }
        Payload::view(bytes.into(), 0..bytes.len())
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload::from(bytes.as_slice())
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: u8) -> Arc<[u8]> {
        (0..n).collect()
    }

    /// Whether `p` reads from `frame` itself rather than a copy.
    fn shares(p: &Payload, frame: &Arc<[u8]>) -> bool {
        p.bytes.as_ref().is_some_and(|b| Arc::ptr_eq(b, frame))
    }

    #[test]
    fn a_view_reads_its_range_of_the_frame_it_took() {
        let f = frame(40);
        let p = Payload::view(Arc::clone(&f), 10..25);
        assert!(shares(&p, &f));
        assert_eq!(p.as_slice(), &f[10..25]);
        assert_eq!(Arc::strong_count(&f), 2, "the view holds its frame");
        drop(p);
        assert_eq!(Arc::strong_count(&f), 1);
        // The range may end exactly at the frame's end, or be empty.
        assert_eq!(Payload::view(Arc::clone(&f), 40..40).len(), 0);
        assert_eq!(Payload::view(Arc::clone(&f), 30..40), &f[30..]);
    }

    #[test]
    #[should_panic(expected = "outside a 40-byte frame")]
    fn a_view_past_its_frame_panics() {
        Payload::view(frame(40), 30..41);
    }

    #[test]
    fn located_spans_stay_inside_their_frame() {
        let f = frame(64);
        let one = Spans::locate(&f, &[&f[8..20]]);
        let p = one.into_payload(Arc::clone(&f));
        assert!(shares(&p, &f), "one fragment is a view, not a copy");
        assert_eq!(p, &f[8..20]);
        let at_end = Spans::locate(&f, &[&f[64..]]);
        assert_eq!(at_end.into_payload(Arc::clone(&f)).len(), 0);
    }

    #[test]
    #[should_panic(expected = "fragment chunk outside its frame")]
    fn a_chunk_of_another_buffer_is_refused() {
        let f = frame(16);
        let other = frame(16);
        Spans::locate(&f, &[&other[2..4]]);
    }

    #[test]
    fn several_fragments_concatenate_in_index_order() {
        let f = frame(64);
        // The fragments listed in index order, placed in the frame out
        // of it.
        let spans = Spans::locate(&f, &[&f[40..50], &f[2..5], &f[20..30]]);
        let p = spans.into_payload(Arc::clone(&f));
        assert!(!shares(&p, &f), "a reassembled payload owns its buffer");
        let want: Vec<u8> = (40..50).chain(2..5).chain(20..30).collect();
        assert_eq!(p, want);
    }

    #[test]
    fn the_default_is_empty_and_owns_nothing() {
        let p = Payload::default();
        assert!(p.is_empty());
        assert_eq!(p, b"");
        assert!(p.bytes.is_none());
        assert_eq!(Payload::from(Vec::new()), p);
    }

    #[test]
    fn equality_compares_bytes_only() {
        let f = frame(32);
        let view = Payload::view(Arc::clone(&f), 4..8);
        let owned = Payload::from(&[4u8, 5, 6, 7][..]);
        let elsewhere = Payload::view(frame(8), 4..8);
        assert_eq!(view, owned);
        assert_eq!(view, elsewhere);
        assert_eq!(view, vec![4, 5, 6, 7]);
        assert_eq!(view, [4, 5, 6, 7]);
        assert_ne!(view, Payload::view(f, 5..9));
        assert_eq!(format!("{view:?}"), format!("{:?}", vec![4u8, 5, 6, 7]));
    }
}
