//! Association request/response frames.

use crate::error::{Error, Result};
use crate::fcs;
use crate::ie;
use crate::mac::{
    self, FrameControl, MacAddr, MgmtHeader, MgmtSubtype, SeqControl, MGMT_HEADER_LEN,
};
use crate::mgmt::auth::StatusCode;
use crate::mgmt::beacon::CapabilityInfo;

/// Zero-copy view of an association request.
#[derive(Debug, Clone)]
pub struct AssocReq<T: AsRef<[u8]>> {
    buf: T,
    body_end: usize,
}

impl<T: AsRef<[u8]>> AssocReq<T> {
    /// Wrap and validate (FCS optional).
    pub fn new_checked(buf: T) -> Result<Self> {
        let b = buf.as_ref();
        let hdr = MgmtHeader::new_checked(b)?;
        if hdr.frame_control().mgmt_subtype() != Ok(MgmtSubtype::AssocReq) {
            return Err(Error::WrongType);
        }
        let body_end = if fcs::check_fcs(b) {
            b.len() - crate::FCS_LEN
        } else {
            b.len()
        };
        if body_end < MGMT_HEADER_LEN + 4 {
            return Err(Error::Truncated);
        }
        Ok(AssocReq { buf, body_end })
    }

    fn body(&self) -> &[u8] {
        &self.buf.as_ref()[MGMT_HEADER_LEN..self.body_end]
    }

    /// Requesting station address.
    pub fn sta(&self) -> MacAddr {
        MgmtHeader::new_unchecked(self.buf.as_ref()).addr2()
    }

    /// Listen interval, beacon intervals: how many beacons the station may
    /// sleep through while in power-save — the knob the WiFi-PS scenario
    /// turns to skip beacons ("wakes up only for every third beacon").
    pub fn listen_interval(&self) -> u16 {
        let b = self.body();
        u16::from_le_bytes([b[2], b[3]])
    }

    /// Requested SSID.
    pub fn ssid(&self) -> Result<&[u8]> {
        Ok(ie::find(&self.body()[4..], ie::ElementId::Ssid)?.data)
    }
}

/// Builder for association requests.
#[derive(Debug, Clone)]
pub struct AssocReqBuilder {
    sta: MacAddr,
    ap: MacAddr,
    ssid: Vec<u8>,
    capability: CapabilityInfo,
    listen_interval: u16,
    rates: Vec<u8>,
    seq: SeqControl,
}

impl AssocReqBuilder {
    /// Associate `sta` with `ap` on network `ssid`.
    pub fn new(sta: MacAddr, ap: MacAddr, ssid: &[u8]) -> Self {
        AssocReqBuilder {
            sta,
            ap,
            ssid: ssid.to_vec(),
            capability: CapabilityInfo::ap_wpa2(),
            listen_interval: 3,
            rates: vec![0x82, 0x84, 0x8B, 0x96, 0x24, 0x30, 0x48, 0x6C],
            seq: SeqControl::new(0, 0),
        }
    }

    /// Set the listen interval (beacon intervals the STA may sleep).
    pub fn listen_interval(mut self, li: u16) -> Self {
        self.listen_interval = li;
        self
    }

    /// Set the sequence control field.
    pub fn seq(mut self, seq: SeqControl) -> Self {
        self.seq = seq;
        self
    }

    /// Emit the complete MPDU including FCS.
    pub fn build(&self) -> Vec<u8> {
        let mut out = Vec::new();
        mac::header::push_header(
            &mut out,
            FrameControl::mgmt(MgmtSubtype::AssocReq),
            0,
            self.ap,
            self.sta,
            self.ap,
            self.seq,
        );
        out.extend_from_slice(&self.capability.0.to_le_bytes());
        out.extend_from_slice(&self.listen_interval.to_le_bytes());
        ie::push_ssid(&mut out, &self.ssid).expect("ssid <= 32 bytes");
        ie::push_supported_rates(&mut out, &self.rates).expect("rates bounded");
        // Echo the security configuration we accept (WPA2-PSK/CCMP).
        ie::Rsn::wpa2_psk().push(&mut out).expect("bounded");
        fcs::append_fcs(&mut out);
        out
    }
}

/// Zero-copy view of an association response.
#[derive(Debug, Clone)]
pub struct AssocResp<T: AsRef<[u8]>> {
    buf: T,
    body_end: usize,
}

impl<T: AsRef<[u8]>> AssocResp<T> {
    /// Wrap and validate (FCS optional).
    pub fn new_checked(buf: T) -> Result<Self> {
        let b = buf.as_ref();
        let hdr = MgmtHeader::new_checked(b)?;
        if hdr.frame_control().mgmt_subtype() != Ok(MgmtSubtype::AssocResp) {
            return Err(Error::WrongType);
        }
        let body_end = if fcs::check_fcs(b) {
            b.len() - crate::FCS_LEN
        } else {
            b.len()
        };
        if body_end < MGMT_HEADER_LEN + 6 {
            return Err(Error::Truncated);
        }
        Ok(AssocResp { buf, body_end })
    }

    fn body(&self) -> &[u8] {
        &self.buf.as_ref()[MGMT_HEADER_LEN..self.body_end]
    }

    /// Status code of the association attempt.
    pub fn status(&self) -> StatusCode {
        let b = self.body();
        StatusCode::from_u16(u16::from_le_bytes([b[2], b[3]]))
    }

    /// Association ID granted (with the two standard-mandated top bits
    /// cleared). This is the AID the TIM bitmap indexes.
    pub fn aid(&self) -> u16 {
        let b = self.body();
        u16::from_le_bytes([b[4], b[5]]) & 0x3FFF
    }
}

/// Builder for association responses.
#[derive(Debug, Clone)]
pub struct AssocRespBuilder {
    ap: MacAddr,
    sta: MacAddr,
    status: StatusCode,
    aid: u16,
    seq: SeqControl,
}

impl AssocRespBuilder {
    /// Respond from `ap` to `sta` with `status`, granting `aid` on success.
    pub fn new(ap: MacAddr, sta: MacAddr, status: StatusCode, aid: u16) -> Self {
        AssocRespBuilder {
            ap,
            sta,
            status,
            aid,
            seq: SeqControl::new(0, 0),
        }
    }

    /// Set the sequence control field.
    pub fn seq(mut self, seq: SeqControl) -> Self {
        self.seq = seq;
        self
    }

    /// Emit the complete MPDU including FCS.
    pub fn build(&self) -> Vec<u8> {
        let mut out = Vec::new();
        mac::header::push_header(
            &mut out,
            FrameControl::mgmt(MgmtSubtype::AssocResp),
            0,
            self.sta,
            self.ap,
            self.ap,
            self.seq,
        );
        out.extend_from_slice(&CapabilityInfo::ap_wpa2().0.to_le_bytes());
        out.extend_from_slice(&self.status.to_u16().to_le_bytes());
        // Standard sets the two MSBs of the AID field.
        out.extend_from_slice(&(self.aid | 0xC000).to_le_bytes());
        ie::push_supported_rates(&mut out, &[0x82, 0x84, 0x8B, 0x96]).expect("bounded");
        fcs::append_fcs(&mut out);
        out
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
    fn request_round_trip() {
        let frame = AssocReqBuilder::new(sta(), ap(), b"HomeNet")
            .listen_interval(3)
            .build();
        let r = AssocReq::new_checked(&frame[..]).unwrap();
        assert_eq!(r.sta(), sta());
        assert_eq!(r.listen_interval(), 3);
        assert_eq!(r.ssid().unwrap(), b"HomeNet");
        let cap = &frame[MGMT_HEADER_LEN..MGMT_HEADER_LEN + 2];
        assert_ne!(
            u16::from_le_bytes([cap[0], cap[1]]) & CapabilityInfo::PRIVACY,
            0
        );
    }

    #[test]
    fn response_round_trip() {
        let frame = AssocRespBuilder::new(ap(), sta(), StatusCode::Success, 7).build();
        let r = AssocResp::new_checked(&frame[..]).unwrap();
        assert!(r.status().is_success());
        assert_eq!(r.aid(), 7);
    }

    #[test]
    fn aid_top_bits_masked() {
        let frame = AssocRespBuilder::new(ap(), sta(), StatusCode::Success, 0x3FFF).build();
        let r = AssocResp::new_checked(&frame[..]).unwrap();
        assert_eq!(r.aid(), 0x3FFF);
    }

    #[test]
    fn rejection_response() {
        let frame = AssocRespBuilder::new(ap(), sta(), StatusCode::ApFull, 0).build();
        let r = AssocResp::new_checked(&frame[..]).unwrap();
        assert_eq!(r.status(), StatusCode::ApFull);
    }

    #[test]
    fn wrong_subtype_rejected_both_ways() {
        let req = AssocReqBuilder::new(sta(), ap(), b"x").build();
        let resp = AssocRespBuilder::new(ap(), sta(), StatusCode::Success, 1).build();
        assert_eq!(
            AssocResp::new_checked(&req[..]).unwrap_err(),
            Error::WrongType
        );
        assert_eq!(
            AssocReq::new_checked(&resp[..]).unwrap_err(),
            Error::WrongType
        );
    }

    #[test]
    fn truncated_rejected() {
        let frame = AssocReqBuilder::new(sta(), ap(), b"x").build();
        assert!(AssocReq::new_checked(&frame[..MGMT_HEADER_LEN + 3]).is_err());
    }
}
