//! The Wi-LE application message and its wire header.
//!
//! Every fragment carried in a vendor-specific IE starts with an 8-byte
//! header:
//!
//! ```text
//! byte 0      version (high nibble) | flags (low nibble)
//! bytes 1–4   device id, big-endian (§6: unique identifiers)
//! bytes 5–6   sequence number, big-endian (dedup across beacons)
//! byte 7      fragment index (high nibble) | fragment count (low nibble)
//! ```

/// Current wire version.
pub const VERSION: u8 = 1;
/// Header length, bytes.
pub const HEADER_LEN: usize = 8;
/// Maximum fragments per message (4-bit count).
pub(crate) const MAX_FRAGMENTS: usize = 15;

/// Flag: the payload is ChaCha20-Poly1305 sealed.
pub const FLAG_ENCRYPTED: u8 = 0b0001;
/// Flag: the sender listens for downlink right after this beacon (§6).
pub(crate) const FLAG_RX_WINDOW: u8 = 0b0010;

/// A decoded fragment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentHeader {
    /// Wire version.
    pub version: u8,
    /// Flags ([`FLAG_ENCRYPTED`], `FLAG_RX_WINDOW`).
    pub flags: u8,
    /// Sending device.
    pub device_id: u32,
    /// Message sequence number.
    pub seq: u16,
    /// Index of this fragment.
    pub frag_index: u8,
    /// Total fragments in the message.
    pub frag_count: u8,
}

impl FragmentHeader {
    /// Serialize.
    pub(crate) fn to_bytes(self) -> [u8; HEADER_LEN] {
        let mut b = [0u8; HEADER_LEN];
        b[0] = (self.version << 4) | (self.flags & 0x0F);
        b[1..5].copy_from_slice(&self.device_id.to_be_bytes());
        b[5..7].copy_from_slice(&self.seq.to_be_bytes());
        b[7] = (self.frag_index << 4) | (self.frag_count & 0x0F);
        b
    }

    /// Parse; `None` for short buffers or unknown versions.
    pub fn parse(b: &[u8]) -> Option<Self> {
        if b.len() < HEADER_LEN {
            return None;
        }
        let version = b[0] >> 4;
        if version != VERSION {
            return None;
        }
        let h = FragmentHeader {
            version,
            flags: b[0] & 0x0F,
            device_id: u32::from_be_bytes(b[1..5].try_into().unwrap()),
            seq: u16::from_be_bytes([b[5], b[6]]),
            frag_index: b[7] >> 4,
            frag_count: b[7] & 0x0F,
        };
        if h.frag_count == 0 || h.frag_index >= h.frag_count {
            return None;
        }
        Some(h)
    }
}

/// An application message: what a device hands to the injector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sending device.
    pub device_id: u32,
    /// Sequence number (monotonic per device, wraps at 2¹⁶).
    pub seq: u16,
    /// Flags.
    pub flags: u8,
    /// The payload (plaintext or sealed, per [`FLAG_ENCRYPTED`]).
    pub payload: Vec<u8>,
}

impl Message {
    /// A plain message.
    pub fn new(device_id: u32, seq: u16, payload: &[u8]) -> Self {
        Message {
            device_id,
            seq,
            flags: 0,
            payload: payload.to_vec(),
        }
    }

    /// True when [`FLAG_ENCRYPTED`] is set.
    pub fn is_encrypted(&self) -> bool {
        self.flags & FLAG_ENCRYPTED != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> FragmentHeader {
        FragmentHeader {
            version: VERSION,
            flags: FLAG_ENCRYPTED,
            device_id: 0xDEAD_BEEF,
            seq: 0x1234,
            frag_index: 2,
            frag_count: 5,
        }
    }

    #[test]
    fn header_round_trip() {
        let h = header();
        let b = h.to_bytes();
        assert_eq!(b.len(), HEADER_LEN);
        assert_eq!(FragmentHeader::parse(&b).unwrap(), h);
    }

    #[test]
    fn header_layout_is_stable() {
        let b = header().to_bytes();
        assert_eq!(b[0], 0x11); // version 1, flags 0b0001
        assert_eq!(&b[1..5], &[0xDE, 0xAD, 0xBE, 0xEF]);
        assert_eq!(&b[5..7], &[0x12, 0x34]);
        assert_eq!(b[7], 0x25); // frag 2 of 5
    }

    #[test]
    fn unknown_version_rejected() {
        let mut b = header().to_bytes();
        b[0] = 0x21; // version 2
        assert!(FragmentHeader::parse(&b).is_none());
    }

    #[test]
    fn invalid_fragment_fields_rejected() {
        let mut b = header().to_bytes();
        b[7] = 0x50; // index 5 of 0
        assert!(FragmentHeader::parse(&b).is_none());
        b[7] = 0x55; // index 5 of 5 (out of range)
        assert!(FragmentHeader::parse(&b).is_none());
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(FragmentHeader::parse(&[0x10; 7]).is_none());
    }

    #[test]
    fn message_flags() {
        let mut m = Message::new(1, 2, b"x");
        assert!(!m.is_encrypted());
        m.flags = FLAG_ENCRYPTED | FLAG_RX_WINDOW;
        assert!(m.is_encrypted());
    }
}
