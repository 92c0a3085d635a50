//! Authentication frames (open-system two-frame exchange).

use crate::error::{Error, Result};
use crate::fcs;
use crate::mac::{
    self, FrameControl, MacAddr, MgmtHeader, MgmtSubtype, SeqControl, MGMT_HEADER_LEN,
};

/// Authentication algorithm numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthAlgorithm {
    /// Open system (the only one modern WPA2 networks use at this stage;
    /// the real key proof happens later in the 4-way handshake).
    OpenSystem,
    /// Legacy WEP shared key.
    SharedKey,
    /// Simultaneous authentication of equals (WPA3).
    Sae,
}

impl AuthAlgorithm {
    /// Wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            AuthAlgorithm::OpenSystem => 0,
            AuthAlgorithm::SharedKey => 1,
            AuthAlgorithm::Sae => 3,
        }
    }

    /// Decode a wire value.
    pub fn from_u16(v: u16) -> Result<Self> {
        Ok(match v {
            0 => AuthAlgorithm::OpenSystem,
            1 => AuthAlgorithm::SharedKey,
            3 => AuthAlgorithm::Sae,
            _ => return Err(Error::BadValue),
        })
    }
}

/// 802.11 status codes (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusCode {
    /// Operation succeeded.
    Success,
    /// Unspecified failure.
    Failure,
    /// The AP cannot support all requested capabilities.
    CapsUnsupported,
    /// Association denied: the AP is at capacity.
    ApFull,
    /// Any other code, preserved verbatim.
    Other(u16),
}

impl StatusCode {
    /// Wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            StatusCode::Success => 0,
            StatusCode::Failure => 1,
            StatusCode::CapsUnsupported => 10,
            StatusCode::ApFull => 17,
            StatusCode::Other(v) => v,
        }
    }

    /// Decode a wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            0 => StatusCode::Success,
            1 => StatusCode::Failure,
            10 => StatusCode::CapsUnsupported,
            17 => StatusCode::ApFull,
            other => StatusCode::Other(other),
        }
    }

    /// True for [`StatusCode::Success`].
    pub fn is_success(self) -> bool {
        matches!(self, StatusCode::Success)
    }
}

/// Zero-copy view of an authentication frame.
#[derive(Debug, Clone)]
pub struct Auth<T: AsRef<[u8]>> {
    buf: T,
}

impl<T: AsRef<[u8]>> Auth<T> {
    /// Wrap and validate (FCS optional).
    pub fn new_checked(buf: T) -> Result<Self> {
        let b = buf.as_ref();
        let hdr = MgmtHeader::new_checked(b)?;
        if hdr.frame_control().mgmt_subtype() != Ok(MgmtSubtype::Auth) {
            return Err(Error::WrongType);
        }
        let body_len = if fcs::check_fcs(b) {
            b.len() - crate::FCS_LEN - MGMT_HEADER_LEN
        } else {
            b.len() - MGMT_HEADER_LEN
        };
        if body_len < 6 {
            return Err(Error::Truncated);
        }
        Ok(Auth { buf })
    }

    fn body(&self) -> &[u8] {
        &self.buf.as_ref()[MGMT_HEADER_LEN..]
    }

    /// Sender address.
    pub fn sender(&self) -> MacAddr {
        MgmtHeader::new_checked(self.buf.as_ref()).unwrap().addr2()
    }

    /// Transaction sequence number (1 = request, 2 = response for
    /// open-system).
    pub fn transaction_seq(&self) -> u16 {
        let b = self.body();
        u16::from_le_bytes([b[2], b[3]])
    }

    /// Status code (meaningful in responses).
    pub fn status(&self) -> StatusCode {
        let b = self.body();
        StatusCode::from_u16(u16::from_le_bytes([b[4], b[5]]))
    }
}

/// Builder for authentication frames.
#[derive(Debug, Clone)]
pub struct AuthBuilder {
    dest: MacAddr,
    src: MacAddr,
    bssid: MacAddr,
    algorithm: AuthAlgorithm,
    transaction_seq: u16,
    status: StatusCode,
    seq: SeqControl,
}

impl AuthBuilder {
    /// An open-system authentication *request* from `sta` to `ap`.
    pub fn request(sta: MacAddr, ap: MacAddr) -> Self {
        AuthBuilder {
            dest: ap,
            src: sta,
            bssid: ap,
            algorithm: AuthAlgorithm::OpenSystem,
            transaction_seq: 1,
            status: StatusCode::Success,
            seq: SeqControl::new(0, 0),
        }
    }

    /// An open-system authentication *response* from `ap` to `sta`.
    pub fn response(ap: MacAddr, sta: MacAddr, status: StatusCode) -> Self {
        AuthBuilder {
            dest: sta,
            src: ap,
            bssid: ap,
            algorithm: AuthAlgorithm::OpenSystem,
            transaction_seq: 2,
            status,
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
            FrameControl::mgmt(MgmtSubtype::Auth),
            0,
            self.dest,
            self.src,
            self.bssid,
            self.seq,
        );
        out.extend_from_slice(&self.algorithm.to_u16().to_le_bytes());
        out.extend_from_slice(&self.transaction_seq.to_le_bytes());
        out.extend_from_slice(&self.status.to_u16().to_le_bytes());
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
        let frame = AuthBuilder::request(sta(), ap()).build();
        let a = Auth::new_checked(&frame[..]).unwrap();
        let alg = &frame[MGMT_HEADER_LEN..MGMT_HEADER_LEN + 2];
        assert_eq!(alg, AuthAlgorithm::OpenSystem.to_u16().to_le_bytes());
        assert_eq!(a.transaction_seq(), 1);
        assert_eq!(a.sender(), sta());
        assert!(a.status().is_success());
    }

    #[test]
    fn response_carries_status() {
        let frame = AuthBuilder::response(ap(), sta(), StatusCode::ApFull).build();
        let a = Auth::new_checked(&frame[..]).unwrap();
        assert_eq!(a.transaction_seq(), 2);
        assert_eq!(a.status(), StatusCode::ApFull);
        assert!(!a.status().is_success());
    }

    #[test]
    fn status_code_round_trip() {
        for code in [
            StatusCode::Success,
            StatusCode::Failure,
            StatusCode::CapsUnsupported,
            StatusCode::ApFull,
            StatusCode::Other(55),
        ] {
            assert_eq!(StatusCode::from_u16(code.to_u16()), code);
        }
    }

    #[test]
    fn algorithm_round_trip_and_reserved() {
        for alg in [
            AuthAlgorithm::OpenSystem,
            AuthAlgorithm::SharedKey,
            AuthAlgorithm::Sae,
        ] {
            assert_eq!(AuthAlgorithm::from_u16(alg.to_u16()).unwrap(), alg);
        }
        assert_eq!(AuthAlgorithm::from_u16(2), Err(Error::BadValue));
    }

    #[test]
    fn truncated_body_rejected() {
        let frame = AuthBuilder::request(sta(), ap()).build();
        // Header + 5 body bytes and no FCS: too short.
        assert_eq!(
            Auth::new_checked(&frame[..MGMT_HEADER_LEN + 5]).unwrap_err(),
            Error::Truncated
        );
    }
}
