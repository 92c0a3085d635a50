//! Property-based tests for the crypto primitives.

use proptest::prelude::*;
use wile_crypto::aead::{open, seal};
use wile_crypto::chacha20::xor_stream;
use wile_crypto::hmac::{hmac_sha1, hmac_sha256};
use wile_crypto::poly1305::Poly1305;
use wile_crypto::prf::prf;
use wile_crypto::sha256::Sha256;
use wile_crypto::{ct_eq, Sha1};

proptest! {
    #[test]
    fn sha1_streaming_equals_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..600),
        splits in prop::collection::vec(any::<prop::sample::Index>(), 0..5),
    ) {
        let want = Sha1::digest(&data);
        let mut cuts: Vec<usize> = splits.iter().map(|i| i.index(data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut h = Sha1::new();
        let mut prev = 0;
        for c in cuts {
            h.update(&data[prev..c]);
            prev = c;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), want);
    }

    #[test]
    fn sha256_streaming_equals_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..600),
        cut in any::<prop::sample::Index>(),
    ) {
        let want = Sha256::digest(&data);
        let c = cut.index(data.len() + 1);
        let mut h = Sha256::new();
        h.update(&data[..c]);
        h.update(&data[c..]);
        prop_assert_eq!(h.finalize(), want);
    }

    #[test]
    fn hashes_differ_on_different_input(
        a in prop::collection::vec(any::<u8>(), 0..64),
        b in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assume!(a != b);
        prop_assert_ne!(Sha1::digest(&a), Sha1::digest(&b));
        prop_assert_ne!(Sha256::digest(&a), Sha256::digest(&b));
    }

    #[test]
    fn hmac_key_sensitivity(
        key in prop::collection::vec(any::<u8>(), 1..80),
        msg in prop::collection::vec(any::<u8>(), 0..80),
        flip_byte in any::<prop::sample::Index>(),
    ) {
        let mac = hmac_sha1(&key, &msg);
        let mut key2 = key.clone();
        let i = flip_byte.index(key2.len());
        key2[i] ^= 1;
        prop_assert_ne!(mac, hmac_sha1(&key2, &msg));
        prop_assert_ne!(hmac_sha256(&key, &msg), hmac_sha256(&key2, &msg));
    }

    #[test]
    fn chacha_xor_is_involution(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        counter in any::<u32>(),
        mut data in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let orig = data.clone();
        xor_stream(&key, counter, &nonce, &mut data);
        xor_stream(&key, counter, &nonce, &mut data);
        prop_assert_eq!(data, orig);
    }

    #[test]
    fn poly1305_streaming_equals_oneshot(
        key in any::<[u8; 32]>(),
        msg in prop::collection::vec(any::<u8>(), 0..200),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut one = Poly1305::new(&key);
        one.update(&msg);
        let want = one.finalize();
        let c = cut.index(msg.len() + 1);
        let mut p = Poly1305::new(&key);
        p.update(&msg[..c]);
        p.update(&msg[c..]);
        prop_assert_eq!(p.finalize(), want);
    }

    #[test]
    fn aead_round_trip(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        aad in prop::collection::vec(any::<u8>(), 0..64),
        plaintext in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let sealed = seal(&key, &nonce, &aad, &plaintext);
        prop_assert_eq!(sealed.len(), plaintext.len() + 16);
        let opened = open(&key, &nonce, &aad, &sealed).unwrap();
        prop_assert_eq!(opened, plaintext);
    }

    #[test]
    fn aead_rejects_any_tamper(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        plaintext in prop::collection::vec(any::<u8>(), 0..100),
        byte in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut sealed = seal(&key, &nonce, b"aad", &plaintext);
        let i = byte.index(sealed.len());
        sealed[i] ^= 1 << bit;
        prop_assert!(open(&key, &nonce, b"aad", &sealed).is_err());
    }

    #[test]
    fn aead_binds_nonce_and_aad(
        key in any::<[u8; 32]>(),
        n1 in any::<[u8; 12]>(),
        n2 in any::<[u8; 12]>(),
        plaintext in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        prop_assume!(n1 != n2);
        let sealed = seal(&key, &n1, b"a", &plaintext);
        prop_assert!(open(&key, &n2, b"a", &sealed).is_err());
        prop_assert!(open(&key, &n1, b"b", &sealed).is_err());
    }

    #[test]
    fn prf_prefix_property(
        key in prop::collection::vec(any::<u8>(), 1..40),
        a in prop::collection::vec(any::<u8>(), 0..20),
        b in prop::collection::vec(any::<u8>(), 0..40),
        short in 1usize..40,
        long in 40usize..100,
    ) {
        let mut s = vec![0u8; short];
        let mut l = vec![0u8; long];
        prf(&key, &a, &b, &mut s);
        prf(&key, &a, &b, &mut l);
        prop_assert_eq!(&s[..], &l[..short]);
    }

    #[test]
    fn ct_eq_agrees_with_eq(
        a in prop::collection::vec(any::<u8>(), 0..32),
        b in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        prop_assert_eq!(ct_eq(&a, &b), a == b);
    }
}
