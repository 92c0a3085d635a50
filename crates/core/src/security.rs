//! Payload encryption (§6): "security can be easily provided by
//! encrypting the data prior to its transmission."
//!
//! ChaCha20-Poly1305 with the per-device key from the registry. The
//! nonce is derived from (device id, sequence number, epoch), so it
//! never repeats while the sender's epoch counter advances each time
//! the 16-bit sequence number wraps. The fragment-header fields
//! (device id, seq) are bound as AAD, so a receiver that decrypts
//! successfully also knows the header was not spliced.

use crate::message::{Message, FLAG_ENCRYPTED};
use crate::registry::DeviceIdentity;
use wile_crypto::aead::{open, seal, AeadError};

/// Build the deterministic nonce for (device, epoch, seq).
pub(crate) fn nonce_for(device_id: u32, epoch: u16, seq: u16) -> [u8; 12] {
    let mut n = [0u8; 12];
    n[0..4].copy_from_slice(&device_id.to_be_bytes());
    n[4..6].copy_from_slice(&epoch.to_be_bytes());
    n[6..8].copy_from_slice(&seq.to_be_bytes());
    n[8..12].copy_from_slice(b"WiLE");
    n
}

fn aad_for(msg_device: u32, seq: u16) -> [u8; 6] {
    let mut a = [0u8; 6];
    a[0..4].copy_from_slice(&msg_device.to_be_bytes());
    a[4..6].copy_from_slice(&seq.to_be_bytes());
    a
}

/// Seal a plaintext into an encrypted [`Message`].
///
/// Panics if the identity has no key.
pub fn encrypt_message(
    identity: &DeviceIdentity,
    epoch: u16,
    seq: u16,
    plaintext: &[u8],
) -> Message {
    let key = identity.key().expect("identity has no key");
    let sealed = seal(
        key,
        &nonce_for(identity.device_id, epoch, seq),
        &aad_for(identity.device_id, seq),
        plaintext,
    );
    Message {
        device_id: identity.device_id,
        seq,
        flags: FLAG_ENCRYPTED,
        payload: sealed,
    }
}

/// Open an encrypted message received from `identity`.
pub fn decrypt_message(
    identity: &DeviceIdentity,
    epoch: u16,
    msg: &Message,
) -> Result<Vec<u8>, AeadError> {
    let key = identity.key().ok_or(AeadError)?;
    if !msg.is_encrypted() || msg.device_id != identity.device_id {
        return Err(AeadError);
    }
    open(
        key,
        &nonce_for(msg.device_id, epoch, msg.seq),
        &aad_for(msg.device_id, msg.seq),
        &msg.payload,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceIdentity {
        DeviceIdentity::with_key(42, b"farm-secret")
    }

    #[test]
    fn round_trip() {
        let id = dev();
        let m = encrypt_message(&id, 0, 7, b"t=21.5C");
        assert!(m.is_encrypted());
        assert_ne!(m.payload, b"t=21.5C"); // actually encrypted
        assert_eq!(m.payload.len(), 7 + 16); // +tag
        assert_eq!(decrypt_message(&id, 0, &m).unwrap(), b"t=21.5C");
    }

    #[test]
    fn wrong_key_fails() {
        let id = dev();
        let other = DeviceIdentity::with_key(42, b"other-secret");
        let m = encrypt_message(&id, 0, 7, b"data");
        assert!(decrypt_message(&other, 0, &m).is_err());
    }

    #[test]
    fn wrong_epoch_fails() {
        let id = dev();
        let m = encrypt_message(&id, 3, 7, b"data");
        assert!(decrypt_message(&id, 4, &m).is_err());
        assert!(decrypt_message(&id, 3, &m).is_ok());
    }

    #[test]
    fn spliced_header_fails() {
        // Re-labelling a ciphertext with another seq must fail (AAD).
        let id = dev();
        let mut m = encrypt_message(&id, 0, 7, b"data");
        m.seq = 8;
        assert!(decrypt_message(&id, 0, &m).is_err());
    }

    #[test]
    fn device_id_mismatch_rejected_without_decrypting() {
        let id = dev();
        let mut m = encrypt_message(&id, 0, 7, b"data");
        m.device_id = 43;
        assert!(decrypt_message(&id, 0, &m).is_err());
    }

    #[test]
    fn nonces_unique_over_epoch_and_seq() {
        let mut seen = std::collections::HashSet::new();
        for epoch in 0..4u16 {
            for seq in 0..256u16 {
                assert!(seen.insert(nonce_for(1, epoch, seq)));
            }
        }
        // Different device never collides either.
        assert!(seen.insert(nonce_for(2, 0, 0)));
    }

    #[test]
    fn plaintext_message_rejected_by_decrypt() {
        let id = dev();
        let m = Message::new(42, 1, b"plain");
        assert!(decrypt_message(&id, 0, &m).is_err());
    }

    #[test]
    #[should_panic(expected = "no key")]
    fn encrypt_without_key_panics() {
        let id = DeviceIdentity::new(1);
        encrypt_message(&id, 0, 0, b"x");
    }
}
