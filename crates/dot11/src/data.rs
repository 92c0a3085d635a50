//! Data frames with LLC/SNAP encapsulation.
//!
//! During connection establishment the client sends DHCP (UDP/IP), ARP and
//! EAPOL payloads inside data frames; Wi-LE never sends one. Null data
//! frames signal power-save transitions to the AP.

use crate::error::{Error, Result};
use crate::fcs;
use crate::mac::{
    self, DataSubtype, FrameControl, MacAddr, MgmtHeader, SeqControl, MGMT_HEADER_LEN,
};

/// LLC/SNAP header length preceding every encapsulated payload.
pub(crate) const LLC_SNAP_LEN: usize = 8;

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// EtherType for ARP.
pub const ETHERTYPE_ARP: u16 = 0x0806;
/// EtherType for EAPOL (802.1X port access entity).
pub const ETHERTYPE_EAPOL: u16 = 0x888E;

/// Build a complete (non-QoS) data MPDU carrying `payload` under the given
/// EtherType, client → AP (`to_ds` set).
pub fn build_data_to_ap(
    sta: MacAddr,
    ap: MacAddr,
    dest: MacAddr,
    ethertype: u16,
    payload: &[u8],
    seq: SeqControl,
) -> Vec<u8> {
    let fc = FrameControl::data(DataSubtype::Data).set_to_ds(true);
    // To-DS addressing: addr1 = BSSID, addr2 = SA, addr3 = DA.
    build_data(fc, ap, sta, dest, ethertype, payload, seq)
}

/// Build a complete data MPDU AP → client (`from_ds` set).
pub fn build_data_from_ap(
    ap: MacAddr,
    sta: MacAddr,
    src: MacAddr,
    ethertype: u16,
    payload: &[u8],
    seq: SeqControl,
) -> Vec<u8> {
    let fc = FrameControl::data(DataSubtype::Data).set_from_ds(true);
    // From-DS addressing: addr1 = DA, addr2 = BSSID, addr3 = SA.
    build_data(fc, sta, ap, src, ethertype, payload, seq)
}

fn build_data(
    fc: FrameControl,
    addr1: MacAddr,
    addr2: MacAddr,
    addr3: MacAddr,
    ethertype: u16,
    payload: &[u8],
    seq: SeqControl,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(MGMT_HEADER_LEN + LLC_SNAP_LEN + payload.len() + 4);
    mac::header::push_header(&mut out, fc, 0, addr1, addr2, addr3, seq);
    push_llc_snap(&mut out, ethertype);
    out.extend_from_slice(payload);
    fcs::append_fcs(&mut out);
    out
}

/// Build a null data frame used to signal a power-management transition:
/// `pm` true tells the AP "I am going to sleep, buffer my traffic".
pub fn build_null(sta: MacAddr, ap: MacAddr, pm: bool, seq: SeqControl) -> Vec<u8> {
    let fc = FrameControl::data(DataSubtype::Null)
        .set_to_ds(true)
        .set_power_mgmt(pm);
    let mut out = Vec::with_capacity(MGMT_HEADER_LEN + 4);
    mac::header::push_header(&mut out, fc, 0, ap, sta, ap, seq);
    fcs::append_fcs(&mut out);
    out
}

/// Append the 802.2 LLC + SNAP header (`AA AA 03 00 00 00` + EtherType).
pub(crate) fn push_llc_snap(out: &mut Vec<u8>, ethertype: u16) {
    out.extend_from_slice(&[0xAA, 0xAA, 0x03, 0x00, 0x00, 0x00]);
    out.extend_from_slice(&ethertype.to_be_bytes());
}

/// Zero-copy view of a data frame.
#[derive(Debug, Clone)]
pub struct DataFrame<T: AsRef<[u8]>> {
    buf: T,
    body_end: usize,
}

impl<T: AsRef<[u8]>> DataFrame<T> {
    /// Wrap and validate (FCS optional).
    pub fn new_checked(buf: T) -> Result<Self> {
        let b = buf.as_ref();
        let hdr = MgmtHeader::new_checked(b)?;
        let subtype = hdr.frame_control().data_subtype()?;
        let body_end = if fcs::check_fcs(b) {
            b.len() - crate::FCS_LEN
        } else {
            b.len()
        };
        if !subtype.is_null() && body_end < MGMT_HEADER_LEN + LLC_SNAP_LEN {
            return Err(Error::Truncated);
        }
        Ok(DataFrame { buf, body_end })
    }

    /// The MAC header.
    pub fn header(&self) -> MgmtHeader<&[u8]> {
        MgmtHeader::new_checked(&self.buf.as_ref()[..self.body_end]).unwrap()
    }

    /// The data subtype.
    pub(crate) fn subtype(&self) -> DataSubtype {
        self.header().frame_control().data_subtype().unwrap()
    }

    /// The EtherType from the LLC/SNAP header (`None` for null frames).
    pub fn ethertype(&self) -> Option<u16> {
        if self.subtype().is_null() {
            return None;
        }
        let b = &self.buf.as_ref()[MGMT_HEADER_LEN..self.body_end];
        Some(u16::from_be_bytes([b[6], b[7]]))
    }

    /// The encapsulated payload after LLC/SNAP (`None` for null frames).
    pub fn payload(&self) -> Option<&[u8]> {
        if self.subtype().is_null() {
            return None;
        }
        Some(&self.buf.as_ref()[MGMT_HEADER_LEN + LLC_SNAP_LEN..self.body_end])
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
    fn to_ap_round_trip() {
        let f = build_data_to_ap(
            sta(),
            ap(),
            MacAddr::BROADCAST,
            ETHERTYPE_ARP,
            b"arp!",
            SeqControl::new(1, 0),
        );
        let d = DataFrame::new_checked(&f[..]).unwrap();
        assert_eq!(d.subtype(), DataSubtype::Data);
        assert_eq!(d.ethertype(), Some(ETHERTYPE_ARP));
        assert_eq!(d.payload(), Some(&b"arp!"[..]));
        // To-DS: addr2 = SA, addr3 = DA.
        assert_eq!(d.header().addr2(), sta());
        assert_eq!(d.header().addr3(), MacAddr::BROADCAST);
        assert!(d.header().frame_control().to_ds());
    }

    #[test]
    fn from_ap_round_trip() {
        let f = build_data_from_ap(
            ap(),
            sta(),
            MacAddr::new([9; 6]),
            ETHERTYPE_IPV4,
            b"ip",
            SeqControl::new(2, 0),
        );
        let d = DataFrame::new_checked(&f[..]).unwrap();
        // From-DS: addr1 = DA, addr3 = SA.
        assert_eq!(d.header().addr3(), MacAddr::new([9; 6]));
        assert_eq!(d.header().addr1(), sta());
        assert!(d.header().frame_control().from_ds());
    }

    #[test]
    fn eapol_ethertype() {
        let f = build_data_to_ap(
            sta(),
            ap(),
            ap(),
            ETHERTYPE_EAPOL,
            &[1, 2, 3],
            SeqControl::new(0, 0),
        );
        let d = DataFrame::new_checked(&f[..]).unwrap();
        assert_eq!(d.ethertype(), Some(ETHERTYPE_EAPOL));
    }

    #[test]
    fn null_frame_signals_power_mgmt() {
        let f = build_null(sta(), ap(), true, SeqControl::new(3, 0));
        let d = DataFrame::new_checked(&f[..]).unwrap();
        assert_eq!(d.subtype(), DataSubtype::Null);
        assert!(d.header().frame_control().power_mgmt());
        assert_eq!(d.ethertype(), None);
        assert_eq!(d.payload(), None);
    }

    #[test]
    fn null_frame_is_minimal() {
        let f = build_null(sta(), ap(), false, SeqControl::new(0, 0));
        assert_eq!(f.len(), MGMT_HEADER_LEN + 4);
    }

    #[test]
    fn truncated_data_rejected() {
        let f = build_data_to_ap(
            sta(),
            ap(),
            ap(),
            ETHERTYPE_IPV4,
            b"",
            SeqControl::new(0, 0),
        );
        assert!(DataFrame::new_checked(&f[..MGMT_HEADER_LEN + 3]).is_err());
    }

    #[test]
    fn llc_snap_bytes() {
        let mut v = Vec::new();
        push_llc_snap(&mut v, 0x0800);
        assert_eq!(v, [0xAA, 0xAA, 0x03, 0x00, 0x00, 0x00, 0x08, 0x00]);
    }

    #[test]
    fn mgmt_frame_rejected() {
        use crate::mgmt::BeaconBuilder;
        let f = BeaconBuilder::new(sta()).hidden_ssid().build();
        assert!(DataFrame::new_checked(&f[..]).is_err());
    }
}
