//! The WPA2-PSK 4-way handshake (IEEE 802.11i §8.5).
//!
//! §3.1 of the paper: "A four-way handshake is performed using the
//! 802.1x protocol to confirm that the client has the shared-key. At
//! least 8 frames are exchanged during this process" (4 EAPOL-Key
//! messages + their MAC ACKs). Both sides here derive real keys:
//! PSK = PBKDF2(passphrase, ssid), PTK = PRF-384(PSK, …nonces…), and the
//! MICs on messages 2–4 are genuine HMAC-SHA1 truncated to 16 bytes.

use wile_crypto::hmac::hmac_sha1;
use wile_crypto::pbkdf2::wpa2_psk;
use wile_crypto::prf::{derive_ptk, kck};
use wile_dot11::eapol::{key_info, KeyFrame};
use wile_dot11::MacAddr;

/// Handshake failure reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WpaError {
    /// A received MIC did not verify — wrong passphrase or tampering.
    BadMic,
    /// A message arrived out of sequence.
    OutOfSequence,
    /// Replay counter did not advance.
    Replay,
}

/// Compute the truncated HMAC-SHA1 MIC over an EAPOL frame.
pub(crate) fn eapol_mic(kck: &[u8; 16], frame_with_zero_mic: &[u8]) -> [u8; 16] {
    let full = hmac_sha1(kck, frame_with_zero_mic);
    full[..16].try_into().unwrap()
}

fn sign(frame: &mut KeyFrame, kck_key: &[u8; 16]) {
    frame.mic = [0; 16];
    let mic = eapol_mic(kck_key, &frame.to_bytes_zero_mic());
    frame.mic = mic;
}

fn verify(frame: &KeyFrame, kck_key: &[u8; 16]) -> bool {
    let want = eapol_mic(kck_key, &frame.to_bytes_zero_mic());
    wile_crypto::ct_eq(&want, &frame.mic)
}

/// The AP side of the handshake.
#[derive(Debug, Clone)]
pub struct Authenticator {
    pmk: [u8; 32],
    aa: MacAddr,
    sa: MacAddr,
    anonce: [u8; 32],
    replay: u64,
    ptk: Option<[u8; 48]>,
    done: bool,
}

impl Authenticator {
    /// Start a handshake for station `sa` on the network
    /// (`ssid`, `passphrase`); `anonce` should be fresh randomness.
    pub fn new(passphrase: &str, ssid: &[u8], aa: MacAddr, sa: MacAddr, anonce: [u8; 32]) -> Self {
        Authenticator {
            pmk: wpa2_psk(passphrase, ssid),
            aa,
            sa,
            anonce,
            replay: 1,
            ptk: None,
            done: false,
        }
    }

    /// Message 1: ANonce, no MIC.
    pub fn message_1(&self) -> KeyFrame {
        let mut f = KeyFrame::pairwise(key_info::KEY_ACK);
        f.replay_counter = self.replay;
        f.nonce = self.anonce;
        f
    }

    /// Process message 2 (SNonce + MIC); on success returns message 3.
    pub fn handle_message_2(&mut self, m2: &KeyFrame) -> Result<KeyFrame, WpaError> {
        if !m2.has_mic() || m2.wants_ack() {
            return Err(WpaError::OutOfSequence);
        }
        if m2.replay_counter != self.replay {
            return Err(WpaError::Replay);
        }
        let ptk = derive_ptk(
            &self.pmk,
            &self.aa.octets(),
            &self.sa.octets(),
            &self.anonce,
            &m2.nonce,
        );
        if !verify(m2, &kck(&ptk)) {
            return Err(WpaError::BadMic);
        }
        self.ptk = Some(ptk);
        self.replay += 1;
        let mut m3 = KeyFrame::pairwise(
            key_info::KEY_ACK
                | key_info::KEY_MIC
                | key_info::INSTALL
                | key_info::SECURE
                | key_info::ENCRYPTED_KEY_DATA,
        );
        m3.replay_counter = self.replay;
        m3.nonce = self.anonce;
        // Key data would carry the wrapped GTK; a fixed-size stand-in
        // keeps the frame length realistic (56 bytes of wrapped data).
        m3.key_data = vec![0xDD; 56];
        sign(&mut m3, &kck(&ptk));
        Ok(m3)
    }

    /// Process message 4; on success the handshake is complete.
    pub fn handle_message_4(&mut self, m4: &KeyFrame) -> Result<(), WpaError> {
        let ptk = self.ptk.ok_or(WpaError::OutOfSequence)?;
        if m4.replay_counter != self.replay {
            return Err(WpaError::Replay);
        }
        if !verify(m4, &kck(&ptk)) {
            return Err(WpaError::BadMic);
        }
        self.done = true;
        Ok(())
    }

    /// True once message 4 verified.
    pub(crate) fn is_complete(&self) -> bool {
        self.done
    }

    /// The derived PTK (after message 2).
    pub fn ptk(&self) -> Option<&[u8; 48]> {
        self.ptk.as_ref()
    }
}

/// The client side of the handshake.
#[derive(Debug, Clone)]
pub struct Supplicant {
    pmk: [u8; 32],
    aa: MacAddr,
    sa: MacAddr,
    snonce: [u8; 32],
    ptk: Option<[u8; 48]>,
}

impl Supplicant {
    /// Create the client side; `snonce` should be fresh randomness.
    pub fn new(passphrase: &str, ssid: &[u8], aa: MacAddr, sa: MacAddr, snonce: [u8; 32]) -> Self {
        Supplicant {
            pmk: wpa2_psk(passphrase, ssid),
            aa,
            sa,
            snonce,
            ptk: None,
        }
    }

    /// Process message 1; returns message 2.
    pub fn handle_message_1(&mut self, m1: &KeyFrame) -> Result<KeyFrame, WpaError> {
        if !m1.wants_ack() || m1.has_mic() {
            return Err(WpaError::OutOfSequence);
        }
        let ptk = derive_ptk(
            &self.pmk,
            &self.aa.octets(),
            &self.sa.octets(),
            &m1.nonce,
            &self.snonce,
        );
        self.ptk = Some(ptk);
        let mut m2 = KeyFrame::pairwise(key_info::KEY_MIC);
        m2.replay_counter = m1.replay_counter;
        m2.nonce = self.snonce;
        // Key data carries the client's RSN IE (fixed 22-byte stand-in).
        m2.key_data = vec![0x30; 22];
        sign(&mut m2, &kck(&ptk));
        Ok(m2)
    }

    /// Process message 3; returns message 4.
    pub fn handle_message_3(&mut self, m3: &KeyFrame) -> Result<KeyFrame, WpaError> {
        let ptk = self.ptk.ok_or(WpaError::OutOfSequence)?;
        if !verify(m3, &kck(&ptk)) {
            return Err(WpaError::BadMic);
        }
        let mut m4 = KeyFrame::pairwise(key_info::KEY_MIC | key_info::SECURE);
        m4.replay_counter = m3.replay_counter;
        sign(&mut m4, &kck(&ptk));
        Ok(m4)
    }

    /// The derived PTK (after message 1).
    pub fn ptk(&self) -> Option<&[u8; 48]> {
        self.ptk.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (MacAddr, MacAddr) {
        (
            MacAddr::new([0xAA, 0, 0, 0, 0, 1]),
            MacAddr::new([2, 0, 0, 0, 0, 5]),
        )
    }

    fn run_handshake(
        pass_ap: &str,
        pass_sta: &str,
    ) -> (Authenticator, Supplicant, Result<(), WpaError>) {
        let (aa, sa) = addrs();
        let mut auth = Authenticator::new(pass_ap, b"HomeNet", aa, sa, [1; 32]);
        let mut supp = Supplicant::new(pass_sta, b"HomeNet", aa, sa, [2; 32]);
        let m1 = auth.message_1();
        let m2 = supp.handle_message_1(&m1).unwrap();
        let result = (|| {
            let m3 = auth.handle_message_2(&m2)?;
            let m4 = supp.handle_message_3(&m3)?;
            auth.handle_message_4(&m4)
        })();
        (auth, supp, result)
    }

    #[test]
    fn matching_passphrases_complete() {
        let (auth, supp, result) = run_handshake("correct horse", "correct horse");
        assert!(result.is_ok());
        assert!(auth.is_complete());
        assert_eq!(auth.ptk().unwrap(), supp.ptk().unwrap());
    }

    #[test]
    fn wrong_passphrase_fails_at_message_2() {
        let (auth, _, result) = run_handshake("correct horse", "battery staple");
        assert_eq!(result, Err(WpaError::BadMic));
        assert!(!auth.is_complete());
    }

    #[test]
    fn frames_survive_serialization() {
        let (aa, sa) = addrs();
        let mut auth = Authenticator::new("pw", b"net", aa, sa, [3; 32]);
        let mut supp = Supplicant::new("pw", b"net", aa, sa, [4; 32]);
        // Round-trip every message through its wire form.
        let m1 = KeyFrame::parse(&auth.message_1().to_bytes()).unwrap();
        let m2 = KeyFrame::parse(&supp.handle_message_1(&m1).unwrap().to_bytes()).unwrap();
        let m3 = KeyFrame::parse(&auth.handle_message_2(&m2).unwrap().to_bytes()).unwrap();
        let m4 = KeyFrame::parse(&supp.handle_message_3(&m3).unwrap().to_bytes()).unwrap();
        assert!(auth.handle_message_4(&m4).is_ok());
    }

    #[test]
    fn tampered_m2_detected() {
        let (aa, sa) = addrs();
        let mut auth = Authenticator::new("pw", b"net", aa, sa, [3; 32]);
        let mut supp = Supplicant::new("pw", b"net", aa, sa, [4; 32]);
        let m1 = auth.message_1();
        let mut m2 = supp.handle_message_1(&m1).unwrap();
        m2.nonce[0] ^= 1;
        assert_eq!(auth.handle_message_2(&m2), Err(WpaError::BadMic));
    }

    #[test]
    fn replay_detected() {
        let (aa, sa) = addrs();
        let mut auth = Authenticator::new("pw", b"net", aa, sa, [3; 32]);
        let mut supp = Supplicant::new("pw", b"net", aa, sa, [4; 32]);
        let m1 = auth.message_1();
        let m2 = supp.handle_message_1(&m1).unwrap();
        let _m3 = auth.handle_message_2(&m2).unwrap();
        // Replaying message 2 (old counter) must be rejected.
        assert_eq!(auth.handle_message_2(&m2), Err(WpaError::Replay));
    }

    #[test]
    fn out_of_sequence_m4_rejected() {
        let (aa, sa) = addrs();
        let mut auth = Authenticator::new("pw", b"net", aa, sa, [3; 32]);
        let bogus = KeyFrame::pairwise(key_info::KEY_MIC);
        assert_eq!(auth.handle_message_4(&bogus), Err(WpaError::OutOfSequence));
    }

    #[test]
    fn message_1_has_no_mic_and_wants_ack() {
        let (aa, sa) = addrs();
        let auth = Authenticator::new("pw", b"net", aa, sa, [3; 32]);
        let m1 = auth.message_1();
        assert!(m1.wants_ack());
        assert!(!m1.has_mic());
    }

    #[test]
    fn different_anonce_different_ptk() {
        let (aa, sa) = addrs();
        let run = |anonce: [u8; 32]| {
            let mut auth = Authenticator::new("pw", b"net", aa, sa, anonce);
            let mut supp = Supplicant::new("pw", b"net", aa, sa, [9; 32]);
            let m2 = supp.handle_message_1(&auth.message_1()).unwrap();
            auth.handle_message_2(&m2).unwrap();
            *auth.ptk().unwrap()
        };
        assert_ne!(run([1; 32]), run([2; 32]));
    }
}
