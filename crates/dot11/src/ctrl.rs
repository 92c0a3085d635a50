//! Control frames: ACK, RTS, CTS, PS-Poll.
//!
//! ACKs matter for energy accounting — every unicast management and data
//! frame in the association exchange is acknowledged, and the paper counts
//! those ACKs among the "at least 20 MAC-layer frames" of §3.1. PS-Poll is
//! how a power-saving client retrieves frames the TIM says are buffered.

use crate::error::{Error, Result};
use crate::fcs;
use crate::mac::{CtrlSubtype, FrameControl, MacAddr};

/// Length of an ACK/CTS MPDU including FCS.
pub(crate) const ACK_LEN: usize = 14;
/// Length of an RTS/PS-Poll MPDU including FCS.
pub(crate) const RTS_LEN: usize = 20;

/// Build an ACK for the station `ra` (the transmitter being acknowledged).
pub fn build_ack(ra: MacAddr) -> Vec<u8> {
    build_short(CtrlSubtype::Ack, 0, ra)
}

/// Build a CTS addressed to `ra` reserving the medium for `duration_us`.
pub fn build_cts(ra: MacAddr, duration_us: u16) -> Vec<u8> {
    build_short(CtrlSubtype::Cts, duration_us, ra)
}

fn build_short(st: CtrlSubtype, duration: u16, ra: MacAddr) -> Vec<u8> {
    let mut out = Vec::with_capacity(ACK_LEN);
    out.extend_from_slice(&FrameControl::ctrl(st).to_le_bytes());
    out.extend_from_slice(&duration.to_le_bytes());
    out.extend_from_slice(&ra.octets());
    fcs::append_fcs(&mut out);
    out
}

/// Build an RTS from `ta` to `ra` reserving `duration_us`.
pub fn build_rts(ta: MacAddr, ra: MacAddr, duration_us: u16) -> Vec<u8> {
    let mut out = Vec::with_capacity(RTS_LEN);
    out.extend_from_slice(&FrameControl::ctrl(CtrlSubtype::Rts).to_le_bytes());
    out.extend_from_slice(&duration_us.to_le_bytes());
    out.extend_from_slice(&ra.octets());
    out.extend_from_slice(&ta.octets());
    fcs::append_fcs(&mut out);
    out
}

/// Build a PS-Poll: the power-saving station `ta` (holding association id
/// `aid`) asks the AP `ra` to release one buffered frame.
pub fn build_ps_poll(ta: MacAddr, ra: MacAddr, aid: u16) -> Vec<u8> {
    let mut out = Vec::with_capacity(RTS_LEN);
    out.extend_from_slice(&FrameControl::ctrl(CtrlSubtype::PsPoll).to_le_bytes());
    // In PS-Poll the duration field carries the AID with both MSBs set.
    out.extend_from_slice(&(aid | 0xC000).to_le_bytes());
    out.extend_from_slice(&ra.octets());
    out.extend_from_slice(&ta.octets());
    fcs::append_fcs(&mut out);
    out
}

/// Decoded view of any control frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtrlFrame {
    /// Which control frame this is.
    pub(crate) subtype: CtrlSubtype,
    /// Receiver address.
    pub(crate) ra: MacAddr,
    /// Transmitter address (absent on ACK/CTS).
    pub(crate) ta: Option<MacAddr>,
    /// Raw duration/ID field.
    pub(crate) duration: u16,
}

impl CtrlFrame {
    /// Parse a control frame (FCS optional: verified and stripped when the
    /// trailing bytes form a valid FCS).
    pub fn parse(frame: &[u8]) -> Result<Self> {
        let body = fcs::strip_fcs(frame).unwrap_or(frame);
        if body.len() < 10 {
            return Err(Error::Truncated);
        }
        let fc = FrameControl::from_le_bytes([body[0], body[1]]);
        let subtype = fc.ctrl_subtype()?;
        let duration = u16::from_le_bytes([body[2], body[3]]);
        let ra = MacAddr::from_slice(&body[4..10])?;
        let ta = if body.len() >= 16 {
            Some(MacAddr::from_slice(&body[10..16])?)
        } else {
            None
        };
        Ok(CtrlFrame {
            subtype,
            ra,
            ta,
            duration,
        })
    }

    /// For PS-Poll frames, the association ID carried in the duration field.
    pub fn aid(&self) -> Option<u16> {
        (self.subtype == CtrlSubtype::PsPoll).then_some(self.duration & 0x3FFF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sta() -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, 5])
    }
    fn ap() -> MacAddr {
        MacAddr::new([0xAA, 0, 0, 0, 0, 1])
    }

    #[test]
    fn ack_layout() {
        let f = build_ack(sta());
        assert_eq!(f.len(), ACK_LEN);
        let p = CtrlFrame::parse(&f).unwrap();
        assert_eq!(p.subtype, CtrlSubtype::Ack);
        assert_eq!(p.ra, sta());
        assert_eq!(p.ta, None);
        assert_eq!(p.duration, 0);
    }

    #[test]
    fn rts_cts_round_trip() {
        let rts = build_rts(sta(), ap(), 132);
        let p = CtrlFrame::parse(&rts).unwrap();
        assert_eq!(p.subtype, CtrlSubtype::Rts);
        assert_eq!(p.ra, ap());
        assert_eq!(p.ta, Some(sta()));
        assert_eq!(p.duration, 132);

        let cts = build_cts(sta(), 100);
        let p = CtrlFrame::parse(&cts).unwrap();
        assert_eq!(p.subtype, CtrlSubtype::Cts);
        assert_eq!(p.duration, 100);
    }

    #[test]
    fn ps_poll_carries_aid() {
        let f = build_ps_poll(sta(), ap(), 7);
        let p = CtrlFrame::parse(&f).unwrap();
        assert_eq!(p.subtype, CtrlSubtype::PsPoll);
        assert_eq!(p.aid(), Some(7));
        assert_eq!(p.ta, Some(sta()));
    }

    #[test]
    fn aid_only_meaningful_for_ps_poll() {
        let p = CtrlFrame::parse(&build_ack(sta())).unwrap();
        assert_eq!(p.aid(), None);
    }

    #[test]
    fn parse_without_fcs() {
        let f = build_ack(sta());
        let p = CtrlFrame::parse(&f[..f.len() - 4]).unwrap();
        assert_eq!(p.subtype, CtrlSubtype::Ack);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            CtrlFrame::parse(&[0xD4, 0x00, 0, 0]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn non_ctrl_rejected() {
        // A beacon's frame control word.
        let mut f = vec![0x80, 0x00, 0, 0];
        f.extend_from_slice(&[0u8; 12]);
        assert_eq!(CtrlFrame::parse(&f).unwrap_err(), Error::WrongType);
    }
}
