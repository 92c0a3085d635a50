//! BLE advertising-channel PDUs.
//!
//! Layout: 2-byte header (type, TxAdd/RxAdd flags, 6-bit length), then
//! the payload. For the advertising PDUs used here the payload is
//! AdvA (6 bytes, little-endian) followed by up to 31 bytes of AdvData.

use crate::crc24;
use crate::whitening::Whitener;

/// Maximum AdvData length, bytes.
pub const MAX_ADV_DATA: usize = 31;
/// The advertising-channel access address every scanner listens on.
pub(crate) const ADV_ACCESS_ADDRESS: u32 = 0x8E89_BED6;

/// A 48-bit BLE device address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BleAddr(pub [u8; 6]);

impl BleAddr {
    /// A random static address derived from a device id (top two bits
    /// set, as the spec requires for static random addresses).
    pub fn random_static(id: u32) -> Self {
        let b = id.to_be_bytes();
        BleAddr([0xC0 | (b[0] & 0x3F), b[1], b[2], b[3], 0x1E, 0xB1])
    }
}

/// Advertising PDU types (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdvPduType {
    /// Connectable undirected advertising (ADV_IND).
    Connectable,
    /// Non-connectable undirected (ADV_NONCONN_IND) — the
    /// Wi-LE-equivalent broadcast.
    NonConnectable,
    /// Scannable undirected (ADV_SCAN_IND).
    Scannable,
}

impl AdvPduType {
    /// 4-bit wire value.
    pub(crate) fn to_bits(self) -> u8 {
        match self {
            AdvPduType::Connectable => 0x0,
            AdvPduType::NonConnectable => 0x2,
            AdvPduType::Scannable => 0x6,
        }
    }

    /// Decode the 4-bit wire value.
    pub(crate) fn from_bits(b: u8) -> Option<Self> {
        Some(match b & 0x0F {
            0x0 => AdvPduType::Connectable,
            0x2 => AdvPduType::NonConnectable,
            0x6 => AdvPduType::Scannable,
            _ => return None,
        })
    }
}

/// An owned advertising PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdvPdu {
    /// PDU type.
    pub(crate) pdu_type: AdvPduType,
    /// TxAdd flag: advertiser address is random (true) or public.
    pub(crate) tx_addr_random: bool,
    /// Advertiser address.
    pub(crate) adv_addr: BleAddr,
    /// Advertising data (AD structures), ≤ 31 bytes.
    pub adv_data: Vec<u8>,
}

impl AdvPdu {
    /// A non-connectable broadcast PDU — BLE's equivalent of a Wi-LE
    /// beacon injection.
    pub fn nonconn(adv_addr: BleAddr, adv_data: &[u8]) -> Self {
        assert!(adv_data.len() <= MAX_ADV_DATA, "AdvData ≤ 31 bytes");
        AdvPdu {
            pdu_type: AdvPduType::NonConnectable,
            tx_addr_random: true,
            adv_addr,
            adv_data: adv_data.to_vec(),
        }
    }

    /// Serialize header + payload (no preamble/AA/CRC/whitening).
    pub fn to_bytes(&self) -> Vec<u8> {
        let len = 6 + self.adv_data.len();
        let mut out = Vec::with_capacity(2 + len);
        let mut h0 = self.pdu_type.to_bits();
        if self.tx_addr_random {
            h0 |= 0x40;
        }
        out.push(h0);
        out.push(len as u8);
        // Addresses go on air least-significant byte first.
        let mut a = self.adv_addr.0;
        a.reverse();
        out.extend_from_slice(&a);
        out.extend_from_slice(&self.adv_data);
        out
    }

    /// Parse header + payload.
    pub fn parse(b: &[u8]) -> Option<Self> {
        if b.len() < 8 {
            return None;
        }
        let pdu_type = AdvPduType::from_bits(b[0])?;
        let tx_addr_random = b[0] & 0x40 != 0;
        let len = b[1] as usize;
        if len < 6 || b.len() < 2 + len {
            return None;
        }
        let mut addr: [u8; 6] = b[2..8].try_into().unwrap();
        addr.reverse();
        Some(AdvPdu {
            pdu_type,
            tx_addr_random,
            adv_addr: BleAddr(addr),
            adv_data: b[8..2 + len].to_vec(),
        })
    }

    /// Build the complete on-air packet for an advertising channel:
    /// preamble, access address, whitened (PDU + CRC).
    pub fn to_air_bytes(&self, channel_idx: u8) -> Vec<u8> {
        let pdu = self.to_bytes();
        let mut body = pdu.clone();
        crc24::append_adv_crc(&mut body, &pdu);
        Whitener::for_channel(channel_idx).apply(&mut body);
        let mut out = Vec::with_capacity(5 + body.len());
        out.push(0xAA); // 1 Mb/s preamble for an AA starting with 0
        out.extend_from_slice(&ADV_ACCESS_ADDRESS.to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Reverse of [`Self::to_air_bytes`]: de-whiten, verify CRC, parse.
    pub fn from_air_bytes(air: &[u8], channel_idx: u8) -> Option<Self> {
        if air.len() < 5 + 2 + 6 + 3 {
            return None;
        }
        if air[1..5] != ADV_ACCESS_ADDRESS.to_le_bytes() {
            return None;
        }
        let mut body = air[5..].to_vec();
        Whitener::for_channel(channel_idx).apply(&mut body);
        let (pdu, crc) = body.split_at(body.len() - 3);
        let crc: [u8; 3] = crc.try_into().unwrap();
        if !crc24::check_adv_crc(pdu, &crc) {
            return None;
        }
        Self::parse(pdu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr() -> BleAddr {
        BleAddr::random_static(7)
    }

    #[test]
    fn pdu_round_trip() {
        let p = AdvPdu::nonconn(addr(), b"temperature=21.5");
        let bytes = p.to_bytes();
        assert_eq!(bytes.len(), 2 + 6 + 16);
        assert_eq!(AdvPdu::parse(&bytes).unwrap(), p);
    }

    #[test]
    fn header_encodes_type_and_txadd() {
        let p = AdvPdu::nonconn(addr(), b"");
        let bytes = p.to_bytes();
        assert_eq!(bytes[0], 0x42); // ADV_NONCONN_IND | TxAdd
        assert_eq!(bytes[1], 6);
    }

    #[test]
    fn air_round_trip_all_adv_channels() {
        let p = AdvPdu::nonconn(addr(), b"payload 123");
        for ch in crate::channel::ADV_CHANNELS {
            let air = p.to_air_bytes(ch);
            let back = AdvPdu::from_air_bytes(&air, ch).unwrap();
            assert_eq!(back, p, "channel {ch}");
        }
    }

    #[test]
    fn wrong_channel_dewhitening_fails_crc() {
        let p = AdvPdu::nonconn(addr(), b"payload");
        let air = p.to_air_bytes(37);
        assert!(AdvPdu::from_air_bytes(&air, 38).is_none());
    }

    #[test]
    fn corrupted_air_bytes_rejected() {
        let p = AdvPdu::nonconn(addr(), b"payload");
        let mut air = p.to_air_bytes(37);
        let mid = air.len() / 2;
        air[mid] ^= 0x10;
        assert!(AdvPdu::from_air_bytes(&air, 37).is_none());
    }

    #[test]
    fn max_adv_data_boundary() {
        let p = AdvPdu::nonconn(addr(), &[0xAB; MAX_ADV_DATA]);
        let air = p.to_air_bytes(39);
        assert_eq!(AdvPdu::from_air_bytes(&air, 39).unwrap().adv_data.len(), 31);
    }

    #[test]
    #[should_panic(expected = "31 bytes")]
    fn oversized_adv_data_rejected() {
        AdvPdu::nonconn(addr(), &[0; 32]);
    }

    #[test]
    fn random_static_addresses() {
        let a = BleAddr::random_static(1);
        let b = BleAddr::random_static(2);
        assert_ne!(a, b);
        assert_eq!(a.0[0] & 0xC0, 0xC0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(AdvPdu::parse(&[0x42]).is_none());
        assert!(AdvPdu::parse(&[0xFF, 6, 0, 0, 0, 0, 0, 0]).is_none()); // bad type
        assert!(AdvPdu::parse(&[0x42, 40, 0, 0, 0, 0, 0, 0]).is_none()); // len overrun
    }
}
