//! EAPOL-Key frames — the four messages of the WPA2-PSK handshake that
//! §3.1 of the paper counts in the connection-establishment cost ("at
//! least 8 frames are exchanged during this process", i.e. 4 EAPOL-Key
//! messages plus their ACKs).
//!
//! Layout (IEEE 802.1X-2010 + 802.11i): a 4-byte EAPOL header followed by
//! a 95-byte EAPOL-Key descriptor body and variable key data.

use crate::error::{Error, Result};

/// EAPOL protocol version used here (802.1X-2004).
pub(crate) const EAPOL_VERSION: u8 = 2;
/// EAPOL packet type for key frames.
pub(crate) const EAPOL_TYPE_KEY: u8 = 3;
/// Descriptor type for RSN (WPA2) key descriptors.
pub(crate) const DESCRIPTOR_RSN: u8 = 2;
/// Fixed length of the EAPOL-Key body (without the EAPOL header and
/// without key data).
pub(crate) const KEY_BODY_LEN: usize = 95;
/// Total fixed length: EAPOL header + key body.
pub(crate) const KEY_FRAME_MIN: usize = 4 + KEY_BODY_LEN;

/// Key information bits (only the ones the 4-way handshake uses).
pub mod key_info {
    /// This key frame concerns the pairwise (unicast) key.
    pub(crate) const KEY_TYPE_PAIRWISE: u16 = 1 << 3;
    /// Supplicant should install the derived temporal key.
    pub const INSTALL: u16 = 1 << 6;
    /// Authenticator expects a reply (messages 1 and 3).
    pub const KEY_ACK: u16 = 1 << 7;
    /// The MIC field is present and must verify (messages 2–4).
    pub const KEY_MIC: u16 = 1 << 8;
    /// The link is secure once this exchange completes.
    pub const SECURE: u16 = 1 << 9;
    /// Key data field is encrypted (message 3 carries a wrapped GTK).
    pub const ENCRYPTED_KEY_DATA: u16 = 1 << 12;
    /// Key descriptor version 2 (HMAC-SHA1 MIC, AES key wrap).
    pub(crate) const VERSION_HMAC_SHA1: u16 = 2;
}

/// Owned representation of an EAPOL-Key frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyFrame {
    /// Key information field (see [`key_info`]).
    pub(crate) info: u16,
    /// Pairwise key length (16 for CCMP).
    pub(crate) key_length: u16,
    /// Monotonic replay counter; the supplicant echoes the last value.
    pub replay_counter: u64,
    /// ANonce (messages 1/3) or SNonce (message 2).
    pub nonce: [u8; 32],
    /// EAPOL key IV (zero for descriptor version 2).
    pub(crate) iv: [u8; 16],
    /// Receive sequence counter for the GTK.
    pub(crate) rsc: u64,
    /// Message integrity code over the whole EAPOL frame with this field
    /// zeroed. Computed by `wile-crypto`'s HMAC-SHA1 in `wile-netstack`.
    pub mic: [u8; 16],
    /// Key data (RSN IE, wrapped GTK, …).
    pub key_data: Vec<u8>,
}

impl KeyFrame {
    /// A blank pairwise key frame with the given flags.
    pub fn pairwise(info_flags: u16) -> Self {
        KeyFrame {
            info: info_flags | key_info::KEY_TYPE_PAIRWISE | key_info::VERSION_HMAC_SHA1,
            key_length: 16,
            replay_counter: 0,
            nonce: [0; 32],
            iv: [0; 16],
            rsc: 0,
            mic: [0; 16],
            key_data: Vec::new(),
        }
    }

    /// Serialize to a complete EAPOL frame (ready for LLC/SNAP
    /// encapsulation under EtherType 0x888E).
    pub fn to_bytes(&self) -> Vec<u8> {
        let body_len = KEY_BODY_LEN + self.key_data.len();
        let mut out = Vec::with_capacity(4 + body_len);
        out.push(EAPOL_VERSION);
        out.push(EAPOL_TYPE_KEY);
        out.extend_from_slice(&(body_len as u16).to_be_bytes());
        out.push(DESCRIPTOR_RSN);
        out.extend_from_slice(&self.info.to_be_bytes());
        out.extend_from_slice(&self.key_length.to_be_bytes());
        out.extend_from_slice(&self.replay_counter.to_be_bytes());
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&self.iv);
        out.extend_from_slice(&self.rsc.to_be_bytes());
        out.extend_from_slice(&[0u8; 8]); // reserved Key ID
        out.extend_from_slice(&self.mic);
        out.extend_from_slice(&(self.key_data.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.key_data);
        out
    }

    /// Serialize with the MIC field zeroed — the byte string the MIC is
    /// computed over.
    pub fn to_bytes_zero_mic(&self) -> Vec<u8> {
        let mut clone = self.clone();
        clone.mic = [0; 16];
        clone.to_bytes()
    }

    /// Parse a complete EAPOL frame.
    pub fn parse(b: &[u8]) -> Result<Self> {
        if b.len() < KEY_FRAME_MIN {
            return Err(Error::Truncated);
        }
        if b[1] != EAPOL_TYPE_KEY {
            return Err(Error::WrongType);
        }
        let body_len = u16::from_be_bytes([b[2], b[3]]) as usize;
        if 4 + body_len > b.len() || body_len < KEY_BODY_LEN {
            return Err(Error::BadLength);
        }
        let d = &b[4..4 + body_len];
        if d[0] != DESCRIPTOR_RSN {
            return Err(Error::BadValue);
        }
        let key_data_len = u16::from_be_bytes([d[93], d[94]]) as usize;
        if KEY_BODY_LEN + key_data_len != body_len {
            return Err(Error::BadLength);
        }
        Ok(KeyFrame {
            info: u16::from_be_bytes([d[1], d[2]]),
            key_length: u16::from_be_bytes([d[3], d[4]]),
            replay_counter: u64::from_be_bytes(d[5..13].try_into().unwrap()),
            nonce: d[13..45].try_into().unwrap(),
            iv: d[45..61].try_into().unwrap(),
            rsc: u64::from_be_bytes(d[61..69].try_into().unwrap()),
            mic: d[77..93].try_into().unwrap(),
            key_data: d[95..].to_vec(),
        })
    }

    /// True when this frame expects an acknowledging reply (set by the
    /// authenticator in messages 1 and 3).
    pub fn wants_ack(&self) -> bool {
        self.info & key_info::KEY_ACK != 0
    }

    /// True when the MIC field is meaningful (messages 2, 3 and 4).
    pub fn has_mic(&self) -> bool {
        self.info & key_info::KEY_MIC != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_empty_key_data() {
        let mut f = KeyFrame::pairwise(key_info::KEY_ACK);
        f.replay_counter = 7;
        f.nonce = [0xAB; 32];
        let bytes = f.to_bytes();
        assert_eq!(bytes.len(), KEY_FRAME_MIN);
        let parsed = KeyFrame::parse(&bytes).unwrap();
        assert_eq!(parsed, f);
        assert!(parsed.wants_ack());
        assert!(!parsed.has_mic());
    }

    #[test]
    fn round_trip_with_key_data() {
        let mut f = KeyFrame::pairwise(key_info::KEY_MIC | key_info::SECURE);
        f.key_data = vec![0x30, 0x14, 1, 2, 3];
        f.mic = [0xCD; 16];
        let bytes = f.to_bytes();
        let parsed = KeyFrame::parse(&bytes).unwrap();
        assert_eq!(parsed.key_data, f.key_data);
        assert_eq!(parsed.mic, f.mic);
        assert!(parsed.has_mic());
    }

    #[test]
    fn zero_mic_serialization_differs_only_in_mic() {
        let mut f = KeyFrame::pairwise(key_info::KEY_MIC);
        f.mic = [0xEE; 16];
        let a = f.to_bytes();
        let b = f.to_bytes_zero_mic();
        assert_eq!(a.len(), b.len());
        let diff: Vec<usize> = (0..a.len()).filter(|&i| a[i] != b[i]).collect();
        // MIC occupies bytes 81..97 of the full frame (4 hdr + 77 offset).
        assert!(diff.iter().all(|&i| (81..97).contains(&i)));
        assert!(!diff.is_empty());
    }

    #[test]
    fn truncated_rejected() {
        let f = KeyFrame::pairwise(0).to_bytes();
        assert_eq!(
            KeyFrame::parse(&f[..KEY_FRAME_MIN - 1]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn wrong_packet_type_rejected() {
        let mut f = KeyFrame::pairwise(0).to_bytes();
        f[1] = 0; // EAP-Packet
        assert_eq!(KeyFrame::parse(&f).unwrap_err(), Error::WrongType);
    }

    #[test]
    fn inconsistent_key_data_length_rejected() {
        let mut f = KeyFrame::pairwise(0);
        f.key_data = vec![1, 2, 3, 4];
        let mut bytes = f.to_bytes();
        // Lie about the key data length.
        let off = 4 + 93;
        bytes[off] = 0;
        bytes[off + 1] = 1;
        assert_eq!(KeyFrame::parse(&bytes).unwrap_err(), Error::BadLength);
    }

    #[test]
    fn wrong_descriptor_rejected() {
        let mut bytes = KeyFrame::pairwise(0).to_bytes();
        bytes[4] = 254;
        assert_eq!(KeyFrame::parse(&bytes).unwrap_err(), Error::BadValue);
    }
}
