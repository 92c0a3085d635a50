//! HMAC (RFC 2104) over SHA-1 and SHA-256.

use crate::sha1::{self, Sha1};
use crate::sha256::{self, Sha256};

/// HMAC-SHA1 — the EAPOL-Key MIC algorithm for WPA2 descriptor version 2.
///
/// ```
/// use wile_crypto::hmac::hmac_sha1;
/// // RFC 2202 test case 1.
/// let mac = hmac_sha1(&[0x0b; 20], b"Hi There");
/// assert_eq!(mac[..4], [0xb6, 0x17, 0x31, 0x86]);
/// ```
pub fn hmac_sha1(key: &[u8], msg: &[u8]) -> [u8; sha1::DIGEST_LEN] {
    let mut k = [0u8; sha1::BLOCK_LEN];
    if key.len() > sha1::BLOCK_LEN {
        k[..sha1::DIGEST_LEN].copy_from_slice(&Sha1::digest(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha1::new();
    let ipad: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
    inner.update(&ipad);
    inner.update(msg);
    let inner_digest = inner.finalize();

    let mut outer = Sha1::new();
    let opad: Vec<u8> = k.iter().map(|b| b ^ 0x5C).collect();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// HMAC-SHA256.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; sha256::DIGEST_LEN] {
    let mut k = [0u8; sha256::BLOCK_LEN];
    if key.len() > sha256::BLOCK_LEN {
        k[..sha256::DIGEST_LEN].copy_from_slice(&Sha256::digest(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha256::new();
    let ipad: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
    inner.update(&ipad);
    inner.update(msg);
    let inner_digest = inner.finalize();

    let mut outer = Sha256::new();
    let opad: Vec<u8> = k.iter().map(|b| b ^ 0x5C).collect();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    // RFC 2202 HMAC-SHA1 test cases.
    #[test]
    fn rfc2202_case1() {
        assert_eq!(
            hex(&hmac_sha1(&[0x0b; 20], b"Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
    }

    #[test]
    fn rfc2202_case2() {
        assert_eq!(
            hex(&hmac_sha1(b"Jefe", b"what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );
    }

    #[test]
    fn rfc2202_case3() {
        assert_eq!(
            hex(&hmac_sha1(&[0xaa; 20], &[0xdd; 50])),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
        );
    }

    #[test]
    fn rfc2202_case6_long_key() {
        // 80-byte key exercises the hash-the-key path.
        assert_eq!(
            hex(&hmac_sha1(
                &[0xaa; 80],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112"
        );
    }

    // RFC 4231 HMAC-SHA256 test cases.
    #[test]
    fn rfc4231_case1() {
        assert_eq!(
            hex(&hmac_sha256(&[0x0b; 20], b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        assert_eq!(
            hex(&hmac_sha256(
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn empty_key_and_message_are_defined() {
        // No panic, deterministic output.
        assert_eq!(hmac_sha1(b"", b""), hmac_sha1(b"", b""));
        assert_eq!(hmac_sha256(b"", b""), hmac_sha256(b"", b""));
    }
}
