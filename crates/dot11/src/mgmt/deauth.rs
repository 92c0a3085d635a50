//! Deauthentication frames (also used for disassociation bodies, which
//! share the 2-byte reason-code layout).

use crate::error::{Error, Result};
use crate::fcs;
use crate::mac::{
    self, FrameControl, MacAddr, MgmtHeader, MgmtSubtype, SeqControl, MGMT_HEADER_LEN,
};

/// 802.11 reason codes (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReasonCode {
    /// Unspecified reason.
    Unspecified,
    /// Sender is leaving (the code a duty-cycled client uses when it
    /// disconnects before deep sleep — the WiFi-DC scenario).
    DeauthLeaving,
    /// Disassociated due to inactivity: what an AP sends when a client
    /// stops listening without power-save protection (§3.2).
    Inactivity,
    /// Any other code, preserved verbatim.
    Other(u16),
}

impl ReasonCode {
    /// Wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            ReasonCode::Unspecified => 1,
            ReasonCode::DeauthLeaving => 3,
            ReasonCode::Inactivity => 4,
            ReasonCode::Other(v) => v,
        }
    }

    /// Decode a wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => ReasonCode::Unspecified,
            3 => ReasonCode::DeauthLeaving,
            4 => ReasonCode::Inactivity,
            other => ReasonCode::Other(other),
        }
    }
}

/// Zero-copy view of a deauthentication frame.
#[derive(Debug, Clone)]
pub struct Deauth<T: AsRef<[u8]>> {
    buf: T,
}

impl<T: AsRef<[u8]>> Deauth<T> {
    /// Wrap and validate (FCS optional).
    pub fn new_checked(buf: T) -> Result<Self> {
        let b = buf.as_ref();
        let hdr = MgmtHeader::new_checked(b)?;
        if hdr.frame_control().mgmt_subtype() != Ok(MgmtSubtype::Deauth) {
            return Err(Error::WrongType);
        }
        if b.len() < MGMT_HEADER_LEN + 2 {
            return Err(Error::Truncated);
        }
        Ok(Deauth { buf })
    }

    /// Sender address.
    pub fn sender(&self) -> MacAddr {
        MgmtHeader::new_checked(self.buf.as_ref()).unwrap().addr2()
    }
}

/// Builder for deauthentication frames.
#[derive(Debug, Clone)]
pub struct DeauthBuilder {
    dest: MacAddr,
    src: MacAddr,
    bssid: MacAddr,
    reason: ReasonCode,
    seq: SeqControl,
}

impl DeauthBuilder {
    /// Deauthenticate: `src` tells `dest` it is gone. `bssid` is the
    /// network both belong(ed) to.
    pub fn new(src: MacAddr, dest: MacAddr, bssid: MacAddr, reason: ReasonCode) -> Self {
        DeauthBuilder {
            dest,
            src,
            bssid,
            reason,
            seq: SeqControl::new(0, 0),
        }
    }

    /// Emit the complete MPDU including FCS.
    pub fn build(&self) -> Vec<u8> {
        let mut out = Vec::new();
        mac::header::push_header(
            &mut out,
            FrameControl::mgmt(MgmtSubtype::Deauth),
            0,
            self.dest,
            self.src,
            self.bssid,
            self.seq,
        );
        out.extend_from_slice(&self.reason.to_u16().to_le_bytes());
        fcs::append_fcs(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let sta = MacAddr::new([2, 0, 0, 0, 0, 5]);
        let ap = MacAddr::new([0xAA, 0, 0, 0, 0, 1]);
        let frame = DeauthBuilder::new(sta, ap, ap, ReasonCode::DeauthLeaving).build();
        let d = Deauth::new_checked(&frame[..]).unwrap();
        let reason = &frame[MGMT_HEADER_LEN..MGMT_HEADER_LEN + 2];
        assert_eq!(reason, ReasonCode::DeauthLeaving.to_u16().to_le_bytes());
        assert_eq!(d.sender(), sta);
        assert!(fcs::check_fcs(&frame));
    }

    #[test]
    fn reason_round_trip() {
        for r in [
            ReasonCode::Unspecified,
            ReasonCode::DeauthLeaving,
            ReasonCode::Inactivity,
            ReasonCode::Other(99),
        ] {
            assert_eq!(ReasonCode::from_u16(r.to_u16()), r);
        }
    }

    #[test]
    fn too_short_rejected() {
        let sta = MacAddr::ZERO;
        let frame = DeauthBuilder::new(sta, sta, sta, ReasonCode::Unspecified).build();
        assert_eq!(
            Deauth::new_checked(&frame[..MGMT_HEADER_LEN + 1]).unwrap_err(),
            Error::Truncated
        );
    }
}
