//! PBKDF2 (RFC 2898) over HMAC-SHA1 — how WPA2-PSK turns a passphrase
//! into the 256-bit pairwise master key: `PSK = PBKDF2(passphrase, ssid,
//! 4096, 32)`.

use crate::hmac::hmac_sha1;
use crate::sha1;

/// Derive `out.len()` bytes from `password` and `salt` with `iterations`
/// rounds of HMAC-SHA1.
pub(crate) fn pbkdf2_hmac_sha1(password: &[u8], salt: &[u8], iterations: u32, out: &mut [u8]) {
    assert!(iterations >= 1, "PBKDF2 requires at least one iteration");
    for (block_index, chunk) in (1u32..).zip(out.chunks_mut(sha1::DIGEST_LEN)) {
        let mut salted = salt.to_vec();
        salted.extend_from_slice(&block_index.to_be_bytes());
        let mut u = hmac_sha1(password, &salted);
        let mut t = u;
        for _ in 1..iterations {
            u = hmac_sha1(password, &u);
            for (ti, ui) in t.iter_mut().zip(&u) {
                *ti ^= ui;
            }
        }
        chunk.copy_from_slice(&t[..chunk.len()]);
    }
}

/// The WPA2-PSK derivation: 4096 iterations, 32-byte key, SSID as salt.
pub fn wpa2_psk(passphrase: &str, ssid: &[u8]) -> [u8; 32] {
    let mut psk = [0u8; 32];
    pbkdf2_hmac_sha1(passphrase.as_bytes(), ssid, 4096, &mut psk);
    psk
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    // RFC 6070 PBKDF2-HMAC-SHA1 test vectors.
    #[test]
    fn rfc6070_one_iteration() {
        let mut out = [0u8; 20];
        pbkdf2_hmac_sha1(b"password", b"salt", 1, &mut out);
        assert_eq!(hex(&out), "0c60c80f961f0e71f3a9b524af6012062fe037a6");
    }

    #[test]
    fn rfc6070_two_iterations() {
        let mut out = [0u8; 20];
        pbkdf2_hmac_sha1(b"password", b"salt", 2, &mut out);
        assert_eq!(hex(&out), "ea6c014dc72d6f8ccd1ed92ace1d41f0d8de8957");
    }

    #[test]
    fn rfc6070_4096_iterations() {
        let mut out = [0u8; 20];
        pbkdf2_hmac_sha1(b"password", b"salt", 4096, &mut out);
        assert_eq!(hex(&out), "4b007901b765489abead49d926f721d065a429c1");
    }

    #[test]
    fn rfc6070_multiblock() {
        let mut out = [0u8; 25];
        pbkdf2_hmac_sha1(
            b"passwordPASSWORDpassword",
            b"saltSALTsaltSALTsaltSALTsaltSALTsalt",
            4096,
            &mut out,
        );
        assert_eq!(
            hex(&out),
            "3d2eec4fe41c849b80c8d83662c0e44a8b291a964cf2f07038"
        );
    }

    // IEEE 802.11i-2004 Annex H.4 PSK test vector.
    #[test]
    fn ieee_80211i_psk_vector() {
        let psk = wpa2_psk("password", b"IEEE");
        assert_eq!(
            hex(&psk),
            "f42c6fc52df0ebef9ebb4b90b38a5f902e83fe1b135a70e23aed762e9710a12e"
        );
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_panics() {
        let mut out = [0u8; 4];
        pbkdf2_hmac_sha1(b"x", b"y", 0, &mut out);
    }
}
