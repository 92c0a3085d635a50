//! Probe request/response frames — the first exchange of the association
//! sequence the paper's WiFi-DC scenario pays for on every wakeup (§3.1).

use crate::error::{Error, Result};
use crate::fcs;
use crate::ie;
use crate::mac::{
    self, FrameControl, MacAddr, MgmtHeader, MgmtSubtype, SeqControl, MGMT_HEADER_LEN,
};
use crate::mgmt::beacon::{BeaconBuilder, CapabilityInfo};

/// Zero-copy view of a probe request.
#[derive(Debug, Clone)]
pub struct ProbeReq<T: AsRef<[u8]>> {
    buf: T,
    body_end: usize,
}

impl<T: AsRef<[u8]>> ProbeReq<T> {
    /// Wrap and validate a probe request MPDU (FCS optional, as for
    /// [`crate::mgmt::Beacon`]).
    pub fn new_checked(buf: T) -> Result<Self> {
        let b = buf.as_ref();
        let hdr = MgmtHeader::new_checked(b)?;
        if hdr.frame_control().mgmt_subtype() != Ok(MgmtSubtype::ProbeReq) {
            return Err(Error::WrongType);
        }
        let body_end = if fcs::check_fcs(b) {
            b.len() - crate::FCS_LEN
        } else {
            b.len()
        };
        Ok(ProbeReq { buf, body_end })
    }

    /// The requesting station's address.
    pub fn sta(&self) -> MacAddr {
        MgmtHeader::new_unchecked(self.buf.as_ref()).addr2()
    }

    /// The SSID being probed for; empty data means a wildcard probe.
    pub fn ssid(&self) -> Result<&[u8]> {
        let body = &self.buf.as_ref()[MGMT_HEADER_LEN..self.body_end];
        Ok(ie::find(body, ie::ElementId::Ssid)?.data)
    }
}

/// Builder for probe requests.
#[derive(Debug, Clone)]
pub struct ProbeReqBuilder {
    sta: MacAddr,
    ssid: Vec<u8>,
    rates: Vec<u8>,
    seq: SeqControl,
}

impl ProbeReqBuilder {
    /// Probe for `ssid` (empty slice = wildcard) from station `sta`.
    pub fn new(sta: MacAddr, ssid: &[u8]) -> Self {
        ProbeReqBuilder {
            sta,
            ssid: ssid.to_vec(),
            rates: vec![0x82, 0x84, 0x8B, 0x96, 0x24, 0x30, 0x48, 0x6C],
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
            FrameControl::mgmt(MgmtSubtype::ProbeReq),
            0,
            MacAddr::BROADCAST,
            self.sta,
            MacAddr::BROADCAST,
            self.seq,
        );
        ie::push_ssid(&mut out, &self.ssid).expect("ssid <= 32 bytes");
        ie::push_supported_rates(&mut out, &self.rates).expect("rates bounded");
        fcs::append_fcs(&mut out);
        out
    }
}

/// Builder for probe responses. A probe response body is identical in
/// layout to a beacon body, so this wraps [`BeaconBuilder`] and rewrites
/// the header.
#[derive(Debug, Clone)]
pub struct ProbeRespBuilder {
    inner: BeaconBuilder,
    dest: MacAddr,
    bssid: MacAddr,
}

impl ProbeRespBuilder {
    /// Respond from `bssid` to station `dest`.
    pub fn new(bssid: MacAddr, dest: MacAddr) -> Self {
        ProbeRespBuilder {
            inner: BeaconBuilder::new(bssid),
            dest,
            bssid,
        }
    }

    /// Advertise `ssid` (probe responses always carry the real SSID).
    pub fn ssid(mut self, ssid: &[u8]) -> Self {
        self.inner = self.inner.ssid(ssid);
        self
    }

    /// Set capability info.
    pub fn capability(mut self, cap: CapabilityInfo) -> Self {
        self.inner = self.inner.capability(cap);
        self
    }

    /// Append supported rates.
    pub fn supported_rates(mut self, rates: &[u8]) -> Self {
        self.inner = self.inner.supported_rates(rates);
        self
    }

    /// Set the channel.
    pub fn channel(mut self, ch: u8) -> Self {
        self.inner = self.inner.channel(ch);
        self
    }

    /// Advertise WPA2 security.
    pub fn rsn(mut self, rsn: &crate::ie::Rsn) -> Self {
        self.inner = self.inner.rsn(rsn);
        self
    }

    /// Emit the complete MPDU including FCS.
    pub fn build(&self) -> Vec<u8> {
        let beacon = self.inner.build();
        // Rewrite: subtype -> ProbeResp, addr1 -> dest (unicast).
        let mut out = beacon;
        let fc = FrameControl::mgmt(MgmtSubtype::ProbeResp);
        out[0..2].copy_from_slice(&fc.to_le_bytes());
        out[4..10].copy_from_slice(&self.dest.octets());
        out[16..22].copy_from_slice(&self.bssid.octets());
        // FCS must be recomputed after header surgery.
        out.truncate(out.len() - crate::FCS_LEN);
        fcs::append_fcs(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mgmt::Beacon;

    #[test]
    fn probe_req_round_trip() {
        let sta = MacAddr::new([2, 0, 0, 0, 0, 9]);
        let frame = ProbeReqBuilder::new(sta, b"HomeNet").build();
        let p = ProbeReq::new_checked(&frame[..]).unwrap();
        assert_eq!(p.sta(), sta);
        assert_eq!(p.ssid().unwrap(), b"HomeNet");
        assert!(fcs::check_fcs(&frame));
    }

    #[test]
    fn wildcard_probe() {
        let sta = MacAddr::new([2, 0, 0, 0, 0, 9]);
        let frame = ProbeReqBuilder::new(sta, b"").build();
        let p = ProbeReq::new_checked(&frame[..]).unwrap();
        assert!(p.ssid().unwrap().is_empty());
    }

    #[test]
    fn probe_resp_has_unicast_dest_and_valid_fcs() {
        let ap = MacAddr::new([0xAA, 0, 0, 0, 0, 1]);
        let sta = MacAddr::new([2, 0, 0, 0, 0, 9]);
        let frame = ProbeRespBuilder::new(ap, sta)
            .ssid(b"HomeNet")
            .capability(CapabilityInfo::ap_wpa2())
            .supported_rates(&[0x82, 0x84])
            .channel(6)
            .build();
        assert!(fcs::check_fcs(&frame));
        let hdr = MgmtHeader::new_checked(&frame[..]).unwrap();
        assert_eq!(
            hdr.frame_control().mgmt_subtype().unwrap(),
            MgmtSubtype::ProbeResp
        );
        assert_eq!(hdr.addr1(), sta);
        assert_eq!(hdr.addr3(), ap);
    }

    #[test]
    fn probe_resp_is_not_a_beacon() {
        let ap = MacAddr::new([0xAA, 0, 0, 0, 0, 1]);
        let sta = MacAddr::new([2, 0, 0, 0, 0, 9]);
        let frame = ProbeRespBuilder::new(ap, sta).ssid(b"x").build();
        assert_eq!(
            Beacon::new_checked(&frame[..]).unwrap_err(),
            Error::WrongType
        );
    }

    #[test]
    fn beacon_rejected_as_probe_req() {
        let frame = BeaconBuilder::new(MacAddr::ZERO).hidden_ssid().build();
        assert_eq!(
            ProbeReq::new_checked(&frame[..]).unwrap_err(),
            Error::WrongType
        );
    }
}
