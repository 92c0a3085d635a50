//! Management-frame information elements (IEs).
//!
//! Every management frame body ends in a sequence of `(id, length, data)`
//! triples. Wi-LE cares about two of them in particular:
//!
//! * **SSID (id 0)** — transmitted with *zero length* to implement the
//!   "hidden SSID" trick of §4.1 of the paper, so injected beacons never
//!   appear in anyone's AP list;
//! * **Vendor-specific (id 221)** — the field that carries the IoT
//!   payload. Its data starts with a 3-byte OUI and a 1-byte vendor type,
//!   leaving [`VENDOR_MAX_PAYLOAD`] bytes for application data (the paper
//!   quotes "up to 253 bytes" for the whole field).

use crate::error::{Error, Result};

/// Element identifiers used in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ElementId {
    Ssid,
    SupportedRates,
    DsParam,
    Tim,
    Country,
    Rsn,
    ExtSupportedRates,
    HtCapabilities,
    VendorSpecific,
    /// Any identifier this crate does not interpret.
    Other(u8),
}

impl ElementId {
    /// Wire value of the identifier.
    pub fn to_u8(self) -> u8 {
        match self {
            ElementId::Ssid => 0,
            ElementId::SupportedRates => 1,
            ElementId::DsParam => 3,
            ElementId::Tim => 5,
            ElementId::Country => 7,
            ElementId::HtCapabilities => 45,
            ElementId::Rsn => 48,
            ElementId::ExtSupportedRates => 50,
            ElementId::VendorSpecific => 221,
            ElementId::Other(v) => v,
        }
    }

    /// Decode a wire identifier.
    pub fn from_u8(v: u8) -> Self {
        match v {
            0 => ElementId::Ssid,
            1 => ElementId::SupportedRates,
            3 => ElementId::DsParam,
            5 => ElementId::Tim,
            7 => ElementId::Country,
            45 => ElementId::HtCapabilities,
            48 => ElementId::Rsn,
            50 => ElementId::ExtSupportedRates,
            221 => ElementId::VendorSpecific,
            other => ElementId::Other(other),
        }
    }
}

/// Maximum data length of any single information element.
pub const IE_MAX_DATA: usize = 255;

/// Maximum application payload of one vendor-specific IE: 255 bytes of
/// element data minus the 3-byte OUI and 1-byte vendor type.
pub const VENDOR_MAX_PAYLOAD: usize = IE_MAX_DATA - 4;

/// One parsed information element borrowing from a frame body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Element<'a> {
    /// The element identifier.
    pub id: ElementId,
    /// The element data (everything after the length octet).
    pub data: &'a [u8],
}

/// Iterator over the information elements of a frame body.
///
/// Yields `Err(Error::BadElement)` once and then stops if a length field
/// overruns the buffer, so malformed tails cannot cause loops.
#[derive(Debug, Clone)]
pub struct Elements<'a> {
    rest: &'a [u8],
    poisoned: bool,
}

impl<'a> Elements<'a> {
    /// Iterate over the IEs in `body`.
    pub fn new(body: &'a [u8]) -> Self {
        Elements {
            rest: body,
            poisoned: false,
        }
    }
}

impl<'a> Iterator for Elements<'a> {
    type Item = Result<Element<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.poisoned || self.rest.is_empty() {
            return None;
        }
        if self.rest.len() < 2 {
            self.poisoned = true;
            return Some(Err(Error::BadElement));
        }
        let id = ElementId::from_u8(self.rest[0]);
        let len = self.rest[1] as usize;
        if self.rest.len() < 2 + len {
            self.poisoned = true;
            return Some(Err(Error::BadElement));
        }
        let data = &self.rest[2..2 + len];
        self.rest = &self.rest[2 + len..];
        Some(Ok(Element { id, data }))
    }
}

/// Find the first element with identifier `id` in `body`.
pub fn find(body: &[u8], id: ElementId) -> Result<Element<'_>> {
    for el in Elements::new(body) {
        let el = el?;
        if el.id == id {
            return Ok(el);
        }
    }
    Err(Error::MissingElement)
}

/// Append one raw information element to `out`.
///
/// Fails with [`Error::Unrepresentable`] if `data` exceeds 255 bytes.
pub fn push(out: &mut Vec<u8>, id: ElementId, data: &[u8]) -> Result<()> {
    if data.len() > IE_MAX_DATA {
        return Err(Error::Unrepresentable);
    }
    out.push(id.to_u8());
    out.push(data.len() as u8);
    out.extend_from_slice(data);
    Ok(())
}

/// Append an SSID element. An empty name is the *hidden SSID* form.
pub fn push_ssid(out: &mut Vec<u8>, name: &[u8]) -> Result<()> {
    if name.len() > 32 {
        return Err(Error::Unrepresentable);
    }
    push(out, ElementId::Ssid, name)
}

/// Append a supported-rates element. Rates are in units of 500 kb/s with
/// the high bit marking basic (mandatory) rates, per the standard.
pub fn push_supported_rates(out: &mut Vec<u8>, rates: &[u8]) -> Result<()> {
    if rates.is_empty() || rates.len() > 8 {
        return Err(Error::Unrepresentable);
    }
    push(out, ElementId::SupportedRates, rates)
}

/// Append a DS parameter set element carrying the current channel.
pub fn push_ds_param(out: &mut Vec<u8>, channel: u8) -> Result<()> {
    push(out, ElementId::DsParam, &[channel])
}

/// Append a vendor-specific element: 3-byte OUI, 1-byte vendor type,
/// then up to [`VENDOR_MAX_PAYLOAD`] bytes of payload.
pub fn push_vendor(out: &mut Vec<u8>, oui: [u8; 3], vtype: u8, payload: &[u8]) -> Result<()> {
    if payload.len() > VENDOR_MAX_PAYLOAD {
        return Err(Error::Unrepresentable);
    }
    let mut data = Vec::with_capacity(4 + payload.len());
    data.extend_from_slice(&oui);
    data.push(vtype);
    data.extend_from_slice(payload);
    push(out, ElementId::VendorSpecific, &data)
}

/// Parsed view of a vendor-specific element's data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VendorIe<'a> {
    /// Organizationally unique identifier.
    pub oui: [u8; 3],
    /// Vendor-defined subtype octet.
    pub vtype: u8,
    /// Vendor payload.
    pub payload: &'a [u8],
}

impl<'a> VendorIe<'a> {
    /// Parse the data of a vendor-specific element.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        if data.len() < 4 {
            return Err(Error::BadElement);
        }
        Ok(VendorIe {
            oui: [data[0], data[1], data[2]],
            vtype: data[3],
            payload: &data[4..],
        })
    }
}

/// Iterate over all vendor-specific elements matching `oui` and `vtype`.
pub fn vendor_elements<'a>(
    body: &'a [u8],
    oui: [u8; 3],
    vtype: u8,
) -> impl Iterator<Item = VendorIe<'a>> + 'a {
    Elements::new(body).filter_map(move |el| {
        let el = el.ok()?;
        if el.id != ElementId::VendorSpecific {
            return None;
        }
        let v = VendorIe::parse(el.data).ok()?;
        (v.oui == oui && v.vtype == vtype).then_some(v)
    })
}

/// Cipher/AKM suite selectors used in RSN elements (OUI 00-0F-AC).
pub mod rsn_suite {
    /// CCMP-128 (AES) — the WPA2 default.
    pub const CCMP: [u8; 4] = [0x00, 0x0F, 0xAC, 0x04];
    /// Pre-shared key authentication.
    pub const PSK: [u8; 4] = [0x00, 0x0F, 0xAC, 0x02];
}

/// The RSN (Robust Security Network) element a WPA2 AP advertises in
/// beacons and probe responses, and a client echoes in its association
/// request — how both sides agree on CCMP + PSK before the 4-way
/// handshake (§3.1: "If the access point has encryption enabled,
/// another step is required to validate the shared key").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rsn {
    /// RSN version (always 1).
    pub version: u16,
    /// Group (multicast) cipher suite.
    pub group_cipher: [u8; 4],
    /// Pairwise (unicast) cipher suites offered.
    pub pairwise_ciphers: Vec<[u8; 4]>,
    /// Authentication and key management suites offered.
    pub akm_suites: Vec<[u8; 4]>,
    /// RSN capabilities field.
    pub capabilities: u16,
}

impl Rsn {
    /// The standard home-network configuration: WPA2-PSK with CCMP.
    pub fn wpa2_psk() -> Self {
        Rsn {
            version: 1,
            group_cipher: rsn_suite::CCMP,
            pairwise_ciphers: vec![rsn_suite::CCMP],
            akm_suites: vec![rsn_suite::PSK],
            capabilities: 0,
        }
    }

    /// Serialize the element data (without the id/len envelope).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(8 + 4 * (self.pairwise_ciphers.len() + self.akm_suites.len()) + 6);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.group_cipher);
        out.extend_from_slice(&(self.pairwise_ciphers.len() as u16).to_le_bytes());
        for c in &self.pairwise_ciphers {
            out.extend_from_slice(c);
        }
        out.extend_from_slice(&(self.akm_suites.len() as u16).to_le_bytes());
        for a in &self.akm_suites {
            out.extend_from_slice(a);
        }
        out.extend_from_slice(&self.capabilities.to_le_bytes());
        out
    }

    /// Parse element data.
    pub fn parse(b: &[u8]) -> Result<Self> {
        if b.len() < 8 {
            return Err(Error::BadElement);
        }
        let version = u16::from_le_bytes([b[0], b[1]]);
        let group_cipher: [u8; 4] = b[2..6].try_into().unwrap();
        let mut off = 6;
        let read_suites = |b: &[u8], off: &mut usize| -> Result<Vec<[u8; 4]>> {
            if b.len() < *off + 2 {
                return Err(Error::BadElement);
            }
            let n = u16::from_le_bytes([b[*off], b[*off + 1]]) as usize;
            *off += 2;
            if n > 16 || b.len() < *off + 4 * n {
                return Err(Error::BadElement);
            }
            let mut v = Vec::with_capacity(n);
            for i in 0..n {
                v.push(b[*off + 4 * i..*off + 4 * i + 4].try_into().unwrap());
            }
            *off += 4 * n;
            Ok(v)
        };
        let pairwise_ciphers = read_suites(b, &mut off)?;
        let akm_suites = read_suites(b, &mut off)?;
        if b.len() < off + 2 {
            return Err(Error::BadElement);
        }
        let capabilities = u16::from_le_bytes([b[off], b[off + 1]]);
        Ok(Rsn {
            version,
            group_cipher,
            pairwise_ciphers,
            akm_suites,
            capabilities,
        })
    }

    /// Append as an information element.
    pub fn push(&self, out: &mut Vec<u8>) -> Result<()> {
        push(out, ElementId::Rsn, &self.to_bytes())
    }

    /// True when the offer includes CCMP pairwise + PSK — what our
    /// supplicant accepts.
    pub fn supports_wpa2_psk(&self) -> bool {
        self.pairwise_ciphers.contains(&rsn_suite::CCMP)
            && self.akm_suites.contains(&rsn_suite::PSK)
    }
}

/// The traffic indication map element the AP places in every beacon;
/// power-saving clients read it to learn whether frames are buffered
/// for them (§3.2 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tim {
    /// Beacons remaining until the next DTIM (0 = this beacon is a DTIM).
    pub dtim_count: u8,
    /// DTIM period in beacon intervals.
    pub dtim_period: u8,
    /// Bit 0: group traffic buffered; bits 1–7: bitmap offset.
    pub bitmap_control: u8,
    /// Partial virtual bitmap: one bit per association ID.
    pub bitmap: Vec<u8>,
}

impl Tim {
    /// A TIM with no buffered traffic.
    pub fn empty(dtim_count: u8, dtim_period: u8) -> Self {
        Tim {
            dtim_count,
            dtim_period,
            bitmap_control: 0,
            bitmap: vec![0],
        }
    }

    /// Whether traffic is buffered for association ID `aid`, taking the
    /// bitmap offset into account.
    pub fn traffic_for(&self, aid: u16) -> bool {
        let offset = ((self.bitmap_control >> 1) as u16) * 2;
        let byte = (aid / 8).checked_sub(offset);
        match byte {
            Some(b) if (b as usize) < self.bitmap.len() => {
                self.bitmap[b as usize] & (1 << (aid % 8)) != 0
            }
            _ => false,
        }
    }

    /// Set the buffered-traffic bit for `aid` (bitmap grows as needed;
    /// offset encoding is not used by this builder).
    pub fn set_traffic_for(&mut self, aid: u16) {
        let byte = (aid / 8) as usize;
        if self.bitmap.len() <= byte {
            self.bitmap.resize(byte + 1, 0);
        }
        self.bitmap[byte] |= 1 << (aid % 8);
    }

    /// Parse from element data.
    pub fn parse(data: &[u8]) -> Result<Self> {
        if data.len() < 4 {
            return Err(Error::BadElement);
        }
        Ok(Tim {
            dtim_count: data[0],
            dtim_period: data[1],
            bitmap_control: data[2],
            bitmap: data[3..].to_vec(),
        })
    }

    /// Append as an information element.
    pub fn push(&self, out: &mut Vec<u8>) -> Result<()> {
        let mut data = Vec::with_capacity(3 + self.bitmap.len());
        data.push(self.dtim_count);
        data.push(self.dtim_period);
        data.push(self.bitmap_control);
        data.extend_from_slice(&self.bitmap);
        push(out, ElementId::Tim, &data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_iteration() {
        let mut body = Vec::new();
        push_ssid(&mut body, b"lab").unwrap();
        push_supported_rates(&mut body, &[0x82, 0x84, 0x8B, 0x96]).unwrap();
        push_ds_param(&mut body, 6).unwrap();
        let els: Vec<_> = Elements::new(&body).map(|e| e.unwrap()).collect();
        assert_eq!(els.len(), 3);
        assert_eq!(els[0].id, ElementId::Ssid);
        assert_eq!(els[0].data, b"lab");
        assert_eq!(els[2].data, &[6]);
    }

    #[test]
    fn hidden_ssid_is_zero_length() {
        let mut body = Vec::new();
        push_ssid(&mut body, b"").unwrap();
        assert_eq!(body, vec![0, 0]);
        let el = find(&body, ElementId::Ssid).unwrap();
        assert!(el.data.is_empty());
    }

    #[test]
    fn ssid_longer_than_32_rejected() {
        let mut body = Vec::new();
        assert_eq!(
            push_ssid(&mut body, &[b'x'; 33]),
            Err(Error::Unrepresentable)
        );
    }

    #[test]
    fn truncated_element_poisons_iterator() {
        // Claims 10 bytes of data but provides 2.
        let body = [221u8, 10, 1, 2];
        let mut it = Elements::new(&body);
        assert_eq!(it.next(), Some(Err(Error::BadElement)));
        assert_eq!(it.next(), None);
    }

    #[test]
    fn lone_id_byte_is_malformed() {
        let body = [0u8];
        assert_eq!(Elements::new(&body).next(), Some(Err(Error::BadElement)));
    }

    #[test]
    fn find_missing_element() {
        let mut body = Vec::new();
        push_ssid(&mut body, b"x").unwrap();
        assert_eq!(
            find(&body, ElementId::Tim).unwrap_err(),
            Error::MissingElement
        );
    }

    #[test]
    fn vendor_ie_round_trip() {
        let mut body = Vec::new();
        push_vendor(&mut body, [0xD0, 0x17, 0x1E], 0x01, b"hello").unwrap();
        let el = find(&body, ElementId::VendorSpecific).unwrap();
        let v = VendorIe::parse(el.data).unwrap();
        assert_eq!(v.oui, [0xD0, 0x17, 0x1E]);
        assert_eq!(v.vtype, 1);
        assert_eq!(v.payload, b"hello");
    }

    #[test]
    fn vendor_max_payload_boundary() {
        let mut body = Vec::new();
        let max = vec![0xAB; VENDOR_MAX_PAYLOAD];
        push_vendor(&mut body, [1, 2, 3], 0, &max).unwrap();
        assert_eq!(body[1] as usize, IE_MAX_DATA);

        let over = vec![0xAB; VENDOR_MAX_PAYLOAD + 1];
        assert_eq!(
            push_vendor(&mut Vec::new(), [1, 2, 3], 0, &over),
            Err(Error::Unrepresentable)
        );
    }

    #[test]
    fn vendor_filter_skips_other_ouis() {
        let mut body = Vec::new();
        push_vendor(&mut body, [0, 0x50, 0xF2], 1, b"wmm").unwrap();
        push_vendor(&mut body, [0xD0, 0x17, 0x1E], 1, b"ours").unwrap();
        push_vendor(&mut body, [0xD0, 0x17, 0x1E], 2, b"other type").unwrap();
        let got: Vec<_> = vendor_elements(&body, [0xD0, 0x17, 0x1E], 1).collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, b"ours");
    }

    #[test]
    fn vendor_parse_needs_oui_and_type() {
        assert_eq!(VendorIe::parse(&[1, 2, 3]), Err(Error::BadElement));
        let v = VendorIe::parse(&[1, 2, 3, 4]).unwrap();
        assert!(v.payload.is_empty());
    }

    #[test]
    fn tim_round_trip() {
        let mut tim = Tim::empty(0, 3);
        tim.set_traffic_for(1);
        tim.set_traffic_for(19);
        let mut out = Vec::new();
        tim.push(&mut out).unwrap();
        let el = find(&out, ElementId::Tim).unwrap();
        let parsed = Tim::parse(el.data).unwrap();
        assert_eq!(parsed, tim);
        assert!(parsed.traffic_for(1));
        assert!(parsed.traffic_for(19));
        assert!(!parsed.traffic_for(2));
        assert!(!parsed.traffic_for(500));
    }

    #[test]
    fn tim_bitmap_offset_decoding() {
        // bitmap_control offset of 1 means the bitmap starts at AID 16.
        let tim = Tim {
            dtim_count: 0,
            dtim_period: 1,
            bitmap_control: 0b0000_0010,
            bitmap: vec![0b0000_0001],
        };
        assert!(tim.traffic_for(16));
        assert!(!tim.traffic_for(0));
    }

    #[test]
    fn tim_too_short_rejected() {
        assert_eq!(Tim::parse(&[0, 1, 0]), Err(Error::BadElement));
    }

    #[test]
    fn supported_rates_bounds() {
        assert!(push_supported_rates(&mut Vec::new(), &[]).is_err());
        assert!(push_supported_rates(&mut Vec::new(), &[1; 9]).is_err());
    }

    #[test]
    fn rsn_wpa2_round_trip() {
        let r = Rsn::wpa2_psk();
        assert!(r.supports_wpa2_psk());
        let parsed = Rsn::parse(&r.to_bytes()).unwrap();
        assert_eq!(parsed, r);
        // 2 + 4 + 2 + 4 + 2 + 4 + 2 = 20 bytes.
        assert_eq!(r.to_bytes().len(), 20);
    }

    #[test]
    fn rsn_as_ie_round_trip() {
        let mut body = Vec::new();
        Rsn::wpa2_psk().push(&mut body).unwrap();
        let el = find(&body, ElementId::Rsn).unwrap();
        assert_eq!(Rsn::parse(el.data).unwrap(), Rsn::wpa2_psk());
    }

    /// TKIP (legacy WPA) and 802.1X (enterprise) suite selectors.
    const TKIP: [u8; 4] = [0x00, 0x0F, 0xAC, 0x02];
    const DOT1X: [u8; 4] = [0x00, 0x0F, 0xAC, 0x01];

    #[test]
    fn rsn_multiple_suites() {
        let r = Rsn {
            version: 1,
            group_cipher: TKIP,
            pairwise_ciphers: vec![rsn_suite::CCMP, TKIP],
            akm_suites: vec![rsn_suite::PSK, DOT1X],
            capabilities: 0x000C,
        };
        let parsed = Rsn::parse(&r.to_bytes()).unwrap();
        assert_eq!(parsed, r);
        assert!(parsed.supports_wpa2_psk());
    }

    #[test]
    fn rsn_without_ccmp_is_not_wpa2() {
        let r = Rsn {
            version: 1,
            group_cipher: TKIP,
            pairwise_ciphers: vec![TKIP],
            akm_suites: vec![rsn_suite::PSK],
            capabilities: 0,
        };
        assert!(!r.supports_wpa2_psk());
    }

    #[test]
    fn rsn_malformed_rejected() {
        assert_eq!(Rsn::parse(&[1, 0, 0]), Err(Error::BadElement));
        // Suite count overrunning the buffer.
        let mut b = Rsn::wpa2_psk().to_bytes();
        b[6] = 200;
        assert_eq!(Rsn::parse(&b), Err(Error::BadElement));
        // Truncated capabilities.
        let good = Rsn::wpa2_psk().to_bytes();
        assert_eq!(Rsn::parse(&good[..good.len() - 1]), Err(Error::BadElement));
    }

    #[test]
    fn element_id_round_trip_all_known() {
        for id in [
            ElementId::Ssid,
            ElementId::SupportedRates,
            ElementId::DsParam,
            ElementId::Tim,
            ElementId::Country,
            ElementId::Rsn,
            ElementId::ExtSupportedRates,
            ElementId::HtCapabilities,
            ElementId::VendorSpecific,
            ElementId::Other(200),
        ] {
            assert_eq!(ElementId::from_u8(id.to_u8()), id);
        }
    }
}
