//! Beacon frames — the frame type Wi-LE injects.
//!
//! A beacon body is: 8-byte TSF timestamp, 2-byte beacon interval (in
//! 1024 µs time units), 2-byte capability information, then information
//! elements. [`BeaconBuilder`] produces both ordinary AP beacons and the
//! hidden-SSID, vendor-IE-bearing fake beacons of §4 of the paper.

use crate::error::{Error, Result};
use crate::fcs;
use crate::ie::{self, ElementId, Tim};
use crate::mac::{
    self, FrameControl, MacAddr, MgmtHeader, MgmtSubtype, SeqControl, MGMT_HEADER_LEN,
};

/// Length of the fixed (non-IE) part of a beacon body, bytes.
pub const BEACON_FIXED_LEN: usize = 12;

/// The 16-bit capability information field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapabilityInfo(pub u16);

impl CapabilityInfo {
    /// ESS bit: set by infrastructure APs (and by Wi-LE fake beacons, to
    /// look like an ordinary AP to the receiver's scan path).
    pub(crate) const ESS: u16 = 1 << 0;
    /// Privacy bit: encryption required.
    pub(crate) const PRIVACY: u16 = 1 << 4;

    /// Capability of a plain open-system AP.
    pub fn ap_open() -> Self {
        CapabilityInfo(Self::ESS)
    }

    /// Capability of a WPA2 AP.
    pub fn ap_wpa2() -> Self {
        CapabilityInfo(Self::ESS | Self::PRIVACY)
    }
}

/// Zero-copy view of a complete beacon MPDU (header + body; FCS optional).
#[derive(Debug, Clone)]
pub struct Beacon<T: AsRef<[u8]>> {
    buf: T,
    body_end: usize,
}

impl<T: AsRef<[u8]>> Beacon<T> {
    /// Wrap a frame that may or may not carry its FCS. When the last
    /// four bytes are a valid FCS they are excluded from the body;
    /// otherwise the whole buffer is taken as an FCS-less frame, so an
    /// invalid FCS is *not* an error here — it is parsed as body bytes.
    /// FCS validation belongs to the caller; a receiver that must drop
    /// bad-FCS frames uses [`Beacon::new_fcs_checked`], which verifies
    /// the FCS strictly and reports a bad one as [`Error::BadFcs`].
    pub fn new_checked(buf: T) -> Result<Self> {
        // Accept frames both with and without a trailing FCS: the simulated
        // medium delivers whole MPDUs, while templates are built FCS-less.
        let b = buf.as_ref();
        let body_end = if fcs::check_fcs(b) {
            b.len() - crate::FCS_LEN
        } else {
            b.len()
        };
        Self::with_body_end(buf, body_end)
    }

    /// Wrap a complete MPDU whose trailing 4 bytes must be a valid FCS.
    /// The FCS is checked first, so a frame that is short, not a
    /// beacon, or malformed *and* fails its FCS reports
    /// [`Error::BadFcs`]; a frame with a valid FCS then gets the same
    /// structural checks as [`Beacon::new_checked`].
    pub fn new_fcs_checked(buf: T) -> Result<Self> {
        let b = buf.as_ref();
        if !fcs::check_fcs(b) {
            return Err(Error::BadFcs);
        }
        let body_end = b.len() - crate::FCS_LEN;
        Self::with_body_end(buf, body_end)
    }

    fn with_body_end(buf: T, body_end: usize) -> Result<Self> {
        let b = buf.as_ref();
        let hdr = MgmtHeader::new_checked(b)?;
        if hdr.frame_control().mgmt_subtype() != Ok(MgmtSubtype::Beacon) {
            return Err(Error::WrongType);
        }
        if body_end < MGMT_HEADER_LEN + BEACON_FIXED_LEN {
            return Err(Error::Truncated);
        }
        Ok(Beacon { buf, body_end })
    }

    fn bytes(&self) -> &[u8] {
        &self.buf.as_ref()[..self.body_end]
    }

    /// The MAC header.
    pub fn header(&self) -> MgmtHeader<&[u8]> {
        MgmtHeader::new_checked(self.bytes()).expect("validated in new_checked")
    }

    /// The transmitting station's address (addr2 = addr3 = BSSID for
    /// beacons; for Wi-LE this is the IoT device's identity address).
    pub fn bssid(&self) -> MacAddr {
        self.header().addr3()
    }

    /// The 64-bit TSF timestamp, microseconds.
    pub fn timestamp(&self) -> u64 {
        let b = &self.bytes()[MGMT_HEADER_LEN..];
        u64::from_le_bytes(b[..8].try_into().unwrap())
    }

    /// Beacon interval in time units of 1024 µs.
    pub fn beacon_interval_tu(&self) -> u16 {
        let b = &self.bytes()[MGMT_HEADER_LEN..];
        u16::from_le_bytes([b[8], b[9]])
    }

    /// The information-element region of the body.
    pub fn elements(&self) -> &[u8] {
        &self.bytes()[MGMT_HEADER_LEN + BEACON_FIXED_LEN..]
    }

    /// The SSID, or `None` for hidden-SSID beacons.
    pub fn ssid(&self) -> Result<Option<&[u8]>> {
        let el = ie::find(self.elements(), ElementId::Ssid)?;
        Ok(if el.data.is_empty() {
            None
        } else {
            Some(el.data)
        })
    }

    /// True when the beacon hides its SSID (the Wi-LE anti-spam mechanism).
    pub fn is_hidden_ssid(&self) -> bool {
        matches!(self.ssid(), Ok(None))
    }

    /// The TIM element, if present (AP beacons carry one; Wi-LE fake
    /// beacons do not).
    pub fn tim(&self) -> Result<Tim> {
        let el = ie::find(self.elements(), ElementId::Tim)?;
        Tim::parse(el.data)
    }

    /// First vendor-specific payload matching `oui`/`vtype`, if any.
    pub fn vendor_payload(&self, oui: [u8; 3], vtype: u8) -> Option<&[u8]> {
        ie::vendor_elements(self.elements(), oui, vtype)
            .next()
            .map(|v| v.payload)
    }
}

/// Builder for complete beacon MPDUs.
///
/// ```
/// use wile_dot11::mgmt::{Beacon, BeaconBuilder};
/// use wile_dot11::mac::MacAddr;
///
/// let dev = MacAddr::from_device_id(7);
/// let frame = BeaconBuilder::new(dev)
///     .timestamp(123_456)
///     .hidden_ssid()
///     .vendor_specific([0xD0, 0x17, 0x1E], 0x01, b"22.5C")
///     .build();
/// let parsed = Beacon::new_checked(&frame[..]).unwrap();
/// assert!(parsed.is_hidden_ssid());
/// assert_eq!(parsed.vendor_payload([0xD0, 0x17, 0x1E], 0x01), Some(&b"22.5C"[..]));
/// ```
#[derive(Debug, Clone)]
pub struct BeaconBuilder {
    bssid: MacAddr,
    timestamp: u64,
    interval_tu: u16,
    capability: CapabilityInfo,
    seq: SeqControl,
    elements: Vec<u8>,
    ssid_written: bool,
}

impl BeaconBuilder {
    /// Start a beacon transmitted (and owned) by `bssid`.
    pub fn new(bssid: MacAddr) -> Self {
        BeaconBuilder {
            bssid,
            timestamp: 0,
            interval_tu: 100, // the classical 102.4 ms default
            capability: CapabilityInfo::ap_open(),
            seq: SeqControl::new(0, 0),
            elements: Vec::new(),
            ssid_written: false,
        }
    }

    /// Set the TSF timestamp (µs).
    pub fn timestamp(mut self, us: u64) -> Self {
        self.timestamp = us;
        self
    }

    /// Set the advertised beacon interval in time units (1024 µs).
    pub fn interval_tu(mut self, tu: u16) -> Self {
        self.interval_tu = tu;
        self
    }

    /// Set the capability field.
    pub fn capability(mut self, cap: CapabilityInfo) -> Self {
        self.capability = cap;
        self
    }

    /// Set the sequence control field.
    pub fn seq(mut self, seq: SeqControl) -> Self {
        self.seq = seq;
        self
    }

    /// Advertise a visible SSID. Must be called at most once, before any
    /// other element.
    pub fn ssid(mut self, name: &[u8]) -> Self {
        assert!(!self.ssid_written, "ssid may only be set once");
        ie::push_ssid(&mut self.elements, name).expect("ssid length checked by caller");
        self.ssid_written = true;
        self
    }

    /// Use the hidden-SSID form (zero-length SSID element) — §4.1.
    pub fn hidden_ssid(self) -> Self {
        self.ssid(b"")
    }

    /// Append a supported-rates element.
    pub fn supported_rates(mut self, rates: &[u8]) -> Self {
        ie::push_supported_rates(&mut self.elements, rates).expect("1..=8 rates");
        self
    }

    /// Append a DS parameter set (channel number).
    pub fn channel(mut self, ch: u8) -> Self {
        ie::push_ds_param(&mut self.elements, ch).expect("infallible");
        self
    }

    /// Append an RSN element (WPA2 security advertisement).
    pub fn rsn(mut self, rsn: &ie::Rsn) -> Self {
        rsn.push(&mut self.elements).expect("rsn bounded");
        self
    }

    /// Append a TIM element.
    pub fn tim(mut self, tim: &Tim) -> Self {
        tim.push(&mut self.elements).expect("bitmap bounded");
        self
    }

    /// Append a vendor-specific element (panics if payload exceeds
    /// [`ie::VENDOR_MAX_PAYLOAD`]; use `ie::push_vendor` directly for a
    /// fallible version).
    pub fn vendor_specific(mut self, oui: [u8; 3], vtype: u8, payload: &[u8]) -> Self {
        ie::push_vendor(&mut self.elements, oui, vtype, payload)
            .expect("payload exceeds vendor IE capacity");
        self
    }

    /// Emit the complete MPDU including FCS.
    pub fn build(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(MGMT_HEADER_LEN + BEACON_FIXED_LEN + self.elements.len() + 4);
        mac::header::push_header(
            &mut out,
            FrameControl::mgmt(MgmtSubtype::Beacon),
            0,
            MacAddr::BROADCAST,
            self.bssid,
            self.bssid,
            self.seq,
        );
        out.extend_from_slice(&self.timestamp.to_le_bytes());
        out.extend_from_slice(&self.interval_tu.to_le_bytes());
        out.extend_from_slice(&self.capability.0.to_le_bytes());
        out.extend_from_slice(&self.elements);
        fcs::append_fcs(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> MacAddr {
        MacAddr::from_device_id(42)
    }

    #[test]
    fn minimal_beacon_round_trip() {
        let frame = BeaconBuilder::new(dev())
            .timestamp(0xDEAD_BEEF)
            .interval_tu(100)
            .ssid(b"net")
            .supported_rates(&[0x82, 0x84])
            .channel(11)
            .build();
        let b = Beacon::new_checked(&frame[..]).unwrap();
        assert_eq!(b.bssid(), dev());
        assert_eq!(b.timestamp(), 0xDEAD_BEEF);
        assert_eq!(b.beacon_interval_tu(), 100);
        assert_eq!(b.ssid().unwrap(), Some(&b"net"[..]));
        assert!(!b.is_hidden_ssid());
    }

    #[test]
    fn hidden_ssid_beacon() {
        let frame = BeaconBuilder::new(dev()).hidden_ssid().build();
        let b = Beacon::new_checked(&frame[..]).unwrap();
        assert!(b.is_hidden_ssid());
    }

    #[test]
    fn wile_shaped_beacon() {
        let frame = BeaconBuilder::new(dev())
            .hidden_ssid()
            .vendor_specific([0xD0, 0x17, 0x1E], 1, b"t=21.5")
            .build();
        let b = Beacon::new_checked(&frame[..]).unwrap();
        assert!(b.header().addr1().is_broadcast());
        assert_eq!(
            b.vendor_payload([0xD0, 0x17, 0x1E], 1),
            Some(&b"t=21.5"[..])
        );
        assert_eq!(b.vendor_payload([0xD0, 0x17, 0x1E], 2), None);
    }

    #[test]
    fn fcs_is_appended_and_verified() {
        let frame = BeaconBuilder::new(dev()).hidden_ssid().build();
        assert!(fcs::check_fcs(&frame));
        // Corrupt one byte: parse must fail the implicit FCS check only if
        // the corrupted frame no longer *ends* with a valid FCS and is thus
        // treated as FCS-less -- the body is then garbage but still parses
        // structurally. The medium is responsible for dropping bad-FCS
        // frames; Beacon itself tolerates FCS-less template buffers.
        let mut bad = frame.clone();
        bad[30] ^= 0xFF;
        assert!(!fcs::check_fcs(&bad));
    }

    #[test]
    fn tim_element_accessible() {
        let mut tim = Tim::empty(2, 3);
        tim.set_traffic_for(5);
        let frame = BeaconBuilder::new(dev()).ssid(b"ap").tim(&tim).build();
        let b = Beacon::new_checked(&frame[..]).unwrap();
        let parsed = b.tim().unwrap();
        assert_eq!(parsed.dtim_count, 2);
        assert!(parsed.traffic_for(5));
    }

    #[test]
    fn missing_tim_reported() {
        let frame = BeaconBuilder::new(dev()).hidden_ssid().build();
        let b = Beacon::new_checked(&frame[..]).unwrap();
        assert_eq!(b.tim().unwrap_err(), Error::MissingElement);
    }

    #[test]
    fn non_beacon_rejected() {
        let mut out = Vec::new();
        mac::header::push_header(
            &mut out,
            FrameControl::mgmt(MgmtSubtype::ProbeReq),
            0,
            MacAddr::BROADCAST,
            dev(),
            MacAddr::BROADCAST,
            SeqControl::new(0, 0),
        );
        out.extend_from_slice(&[0u8; BEACON_FIXED_LEN]);
        assert_eq!(Beacon::new_checked(&out[..]).unwrap_err(), Error::WrongType);
    }

    #[test]
    fn truncated_beacon_rejected() {
        let frame = BeaconBuilder::new(dev()).hidden_ssid().build();
        assert!(Beacon::new_checked(&frame[..MGMT_HEADER_LEN + 4]).is_err());
    }

    #[test]
    fn capability_bits() {
        let (open, wpa2) = (CapabilityInfo::ap_open().0, CapabilityInfo::ap_wpa2().0);
        assert_eq!(open, CapabilityInfo::ESS);
        assert_eq!(wpa2, CapabilityInfo::ESS | CapabilityInfo::PRIVACY);
    }

    #[test]
    fn fcs_checked_rejects_bad_fcs_before_structure() {
        let frame = BeaconBuilder::new(dev()).hidden_ssid().build();
        let b = Beacon::new_fcs_checked(&frame[..]).unwrap();
        assert!(b.is_hidden_ssid());
        assert_eq!(
            b.elements(),
            Beacon::new_checked(&frame[..]).unwrap().elements()
        );
        let mut bad = frame.clone();
        bad[30] ^= 0xFF;
        assert_eq!(
            Beacon::new_fcs_checked(&bad[..]).unwrap_err(),
            Error::BadFcs
        );
        // Short and non-beacon frames with a bad FCS are FCS errors too.
        assert_eq!(
            Beacon::new_fcs_checked(&frame[..3]).unwrap_err(),
            Error::BadFcs
        );
        assert_eq!(
            Beacon::new_fcs_checked(&frame[..10]).unwrap_err(),
            Error::BadFcs
        );
        let mut probe = Vec::new();
        mac::header::push_header(
            &mut probe,
            FrameControl::mgmt(MgmtSubtype::ProbeReq),
            0,
            MacAddr::BROADCAST,
            dev(),
            MacAddr::BROADCAST,
            SeqControl::new(0, 0),
        );
        probe.extend_from_slice(&[0u8; BEACON_FIXED_LEN + 4]);
        assert_eq!(
            Beacon::new_fcs_checked(&probe[..]).unwrap_err(),
            Error::BadFcs
        );
        // With a valid FCS the structural verdicts are new_checked's.
        let len = probe.len();
        let crc = fcs::crc32(&probe[..len - 4]);
        probe[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            Beacon::new_fcs_checked(&probe[..]).unwrap_err(),
            Error::WrongType
        );
        let mut short = frame[..MGMT_HEADER_LEN + 4].to_vec();
        fcs::append_fcs(&mut short);
        assert_eq!(
            Beacon::new_fcs_checked(&short[..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn beacon_without_fcs_parses() {
        let frame = BeaconBuilder::new(dev()).hidden_ssid().build();
        let no_fcs = &frame[..frame.len() - 4];
        let b = Beacon::new_checked(no_fcs).unwrap();
        assert!(b.is_hidden_ssid());
    }
}
