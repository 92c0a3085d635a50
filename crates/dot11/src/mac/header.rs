//! The 24-byte MAC header shared by management and (non-QoS) data frames,
//! plus the 16-bit sequence control field.

use crate::error::{Error, Result};
use crate::mac::{FrameControl, MacAddr};

/// Length of the management/data MAC header, bytes.
pub const MGMT_HEADER_LEN: usize = 24;

/// The 16-bit sequence control field: a 4-bit fragment number and a
/// 12-bit sequence number.
///
/// ```
/// use wile_dot11::mac::SeqControl;
/// let sc = SeqControl::new(4095, 3);
/// assert_eq!(sc.seq(), 4095);
/// assert_eq!(sc.frag(), 3);
/// // Sequence numbers wrap at 4096.
/// assert_eq!(sc.next_seq().seq(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeqControl(pub u16);

impl SeqControl {
    /// Build from a sequence number (0..4096) and fragment number (0..16).
    /// Out-of-range values are masked.
    pub fn new(seq: u16, frag: u8) -> Self {
        SeqControl(((seq & 0x0FFF) << 4) | (frag as u16 & 0x0F))
    }

    /// The 12-bit sequence number.
    pub fn seq(self) -> u16 {
        self.0 >> 4
    }

    /// The 4-bit fragment number.
    pub fn frag(self) -> u8 {
        (self.0 & 0x0F) as u8
    }

    /// The sequence control of the next MSDU (fragment number reset,
    /// sequence number incremented modulo 4096).
    pub fn next_seq(self) -> Self {
        SeqControl::new((self.seq() + 1) & 0x0FFF, 0)
    }

    /// Wire encoding, little-endian.
    pub fn to_le_bytes(self) -> [u8; 2] {
        self.0.to_le_bytes()
    }

    /// Parse from wire bytes.
    pub fn from_le_bytes(b: [u8; 2]) -> Self {
        SeqControl(u16::from_le_bytes(b))
    }
}

/// Zero-copy view of a frame that starts with the standard 24-byte header:
/// frame control, duration/ID, three addresses, sequence control.
///
/// For management frames: addr1 = DA (receiver), addr2 = SA (transmitter),
/// addr3 = BSSID. A Wi-LE beacon sets addr1 = broadcast and
/// addr2 = addr3 = the injecting device's address.
#[derive(Debug, Clone)]
pub struct MgmtHeader<T: AsRef<[u8]>> {
    buf: T,
}

impl<T: AsRef<[u8]>> MgmtHeader<T> {
    /// Wrap a buffer, verifying it is long enough to hold the header.
    pub fn new_checked(buf: T) -> Result<Self> {
        if buf.as_ref().len() < MGMT_HEADER_LEN {
            return Err(Error::Truncated);
        }
        Ok(MgmtHeader { buf })
    }

    /// The frame control field.
    pub fn frame_control(&self) -> FrameControl {
        let b = self.buf.as_ref();
        FrameControl::from_le_bytes([b[0], b[1]])
    }

    /// Address 1 — the receiver address.
    pub fn addr1(&self) -> MacAddr {
        MacAddr::from_slice(&self.buf.as_ref()[4..10]).unwrap()
    }

    /// Address 2 — the transmitter address.
    pub fn addr2(&self) -> MacAddr {
        MacAddr::from_slice(&self.buf.as_ref()[10..16]).unwrap()
    }

    /// Address 3 — the BSSID for management frames.
    pub fn addr3(&self) -> MacAddr {
        MacAddr::from_slice(&self.buf.as_ref()[16..22]).unwrap()
    }

    /// The sequence control field.
    pub fn seq_control(&self) -> SeqControl {
        let b = self.buf.as_ref();
        SeqControl::from_le_bytes([b[22], b[23]])
    }

    /// The frame body following the header (FCS not stripped).
    pub fn body(&self) -> &[u8] {
        &self.buf.as_ref()[MGMT_HEADER_LEN..]
    }
}

/// Serialize a 24-byte MAC header into `out`.
pub fn push_header(
    out: &mut Vec<u8>,
    fc: FrameControl,
    duration: u16,
    addr1: MacAddr,
    addr2: MacAddr,
    addr3: MacAddr,
    seq: SeqControl,
) {
    out.extend_from_slice(&fc.to_le_bytes());
    out.extend_from_slice(&duration.to_le_bytes());
    out.extend_from_slice(&addr1.octets());
    out.extend_from_slice(&addr2.octets());
    out.extend_from_slice(&addr3.octets());
    out.extend_from_slice(&seq.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::MgmtSubtype;

    fn sample_header() -> Vec<u8> {
        let mut v = Vec::new();
        push_header(
            &mut v,
            FrameControl::mgmt(MgmtSubtype::Beacon),
            0,
            MacAddr::BROADCAST,
            MacAddr::new([2, 0, 0, 0, 0, 1]),
            MacAddr::new([2, 0, 0, 0, 0, 1]),
            SeqControl::new(17, 0),
        );
        v
    }

    #[test]
    fn header_round_trip() {
        let v = sample_header();
        assert_eq!(v.len(), MGMT_HEADER_LEN);
        let h = MgmtHeader::new_checked(&v[..]).unwrap();
        assert_eq!(
            h.frame_control().mgmt_subtype().unwrap(),
            MgmtSubtype::Beacon
        );
        assert_eq!(&v[2..4], &[0, 0], "duration");
        assert!(h.addr1().is_broadcast());
        assert_eq!(h.addr2(), MacAddr::new([2, 0, 0, 0, 0, 1]));
        assert_eq!(h.addr3(), h.addr2());
        assert_eq!(h.seq_control().seq(), 17);
        assert!(h.body().is_empty());
    }

    #[test]
    fn truncated_header_rejected() {
        let v = sample_header();
        assert!(MgmtHeader::new_checked(&v[..23]).is_err());
        assert!(MgmtHeader::new_checked(&[][..]).is_err());
    }

    #[test]
    fn seq_control_masks_out_of_range() {
        let sc = SeqControl::new(0xFFFF, 0xFF);
        assert_eq!(sc.seq(), 0x0FFF);
        assert_eq!(sc.frag(), 0x0F);
    }

    #[test]
    fn seq_control_wire_order() {
        // seq=1, frag=0 -> 0x0010 -> bytes [0x10, 0x00]
        assert_eq!(SeqControl::new(1, 0).to_le_bytes(), [0x10, 0x00]);
    }

    #[test]
    fn next_seq_resets_fragment() {
        let sc = SeqControl::new(9, 5);
        let n = sc.next_seq();
        assert_eq!(n.seq(), 10);
        assert_eq!(n.frag(), 0);
    }

    #[test]
    fn body_is_everything_after_header() {
        let mut v = sample_header();
        v.extend_from_slice(b"payload");
        let h = MgmtHeader::new_checked(&v[..]).unwrap();
        assert_eq!(h.body(), b"payload");
    }
}
