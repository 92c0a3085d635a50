//! # wile-crypto — minimal cryptographic primitives, from scratch
//!
//! The Wi-LE reproduction needs exactly two pieces of cryptography:
//!
//! 1. the **WPA2-PSK 4-way handshake** that the paper's WiFi-DC scenario
//!    pays for on every reconnection (PBKDF2-HMAC-SHA1 for the PSK, the
//!    802.11i PRF for key expansion, HMAC-SHA1 for EAPOL MICs), and
//! 2. **payload encryption for Wi-LE messages** — §6 of the paper notes
//!    that "security can be easily provided by encrypting the data prior
//!    to its transmission"; we use ChaCha20-Poly1305 (RFC 8439), a cipher
//!    plausible on microcontroller-class hardware.
//!
//! No crypto crates are in this build's allowed dependency set, so these
//! are implemented here and validated against FIPS/RFC test vectors. They
//! are straightforward, constant-time-enough-for-a-simulator
//! implementations — see each module's notes before considering reuse.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aead;
pub mod chacha20;
pub mod hmac;
pub mod pbkdf2;
pub mod poly1305;
pub mod prf;
mod sha1;
pub mod sha256;

pub use sha1::Sha1;

/// Constant-time byte-slice equality (no early exit on mismatch).
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }
}
