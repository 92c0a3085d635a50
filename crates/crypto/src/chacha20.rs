//! ChaCha20 stream cipher (RFC 8439).

/// Key length, bytes.
pub(crate) const KEY_LEN: usize = 32;
/// Nonce length, bytes.
pub(crate) const NONCE_LEN: usize = 12;
/// Block size, bytes.
pub(crate) const BLOCK_LEN: usize = 64;

/// One ChaCha20 block: 64 bytes of keystream for (key, counter, nonce).
pub(crate) fn block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCK_LEN] {
    let mut state = [0u32; 16];
    state[0] = 0x61707865;
    state[1] = 0x3320646e;
    state[2] = 0x79622d32;
    state[3] = 0x6b206574;
    for i in 0..8 {
        state[4 + i] = u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().unwrap());
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes(nonce[i * 4..i * 4 + 4].try_into().unwrap());
    }

    let mut w = state;
    for _ in 0..10 {
        // Column rounds.
        quarter(&mut w, 0, 4, 8, 12);
        quarter(&mut w, 1, 5, 9, 13);
        quarter(&mut w, 2, 6, 10, 14);
        quarter(&mut w, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter(&mut w, 0, 5, 10, 15);
        quarter(&mut w, 1, 6, 11, 12);
        quarter(&mut w, 2, 7, 8, 13);
        quarter(&mut w, 3, 4, 9, 14);
    }
    let mut out = [0u8; BLOCK_LEN];
    for i in 0..16 {
        let v = w[i].wrapping_add(state[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
    }
    out
}

fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// XOR `data` in place with the ChaCha20 keystream starting at block
/// `initial_counter`. Encryption and decryption are the same operation.
pub fn xor_stream(
    key: &[u8; KEY_LEN],
    initial_counter: u32,
    nonce: &[u8; NONCE_LEN],
    data: &mut [u8],
) {
    for (i, chunk) in data.chunks_mut(BLOCK_LEN).enumerate() {
        let ks = block(key, initial_counter.wrapping_add(i as u32), nonce);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    fn test_key() -> [u8; 32] {
        let mut k = [0u8; 32];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    #[test]
    fn rfc8439_block_vector() {
        // RFC 8439 §2.3.2.
        let key = test_key();
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let out = block(&key, 1, &nonce);
        assert_eq!(
            hex(&out),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // RFC 8439 §2.4.2.
        let key = test_key();
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you o\
nly one tip for the future, sunscreen would be it."
            .to_vec();
        xor_stream(&key, 1, &nonce, &mut data);
        assert_eq!(
            hex(&data[..64]),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
        );
        assert_eq!(data.len(), 114);
    }

    #[test]
    fn xor_round_trips() {
        let key = test_key();
        let nonce = [9u8; 12];
        let plain: Vec<u8> = (0..=200u8).collect();
        let mut data = plain.clone();
        xor_stream(&key, 0, &nonce, &mut data);
        assert_ne!(data, plain);
        xor_stream(&key, 0, &nonce, &mut data);
        assert_eq!(data, plain);
    }

    #[test]
    fn different_nonces_differ() {
        let key = test_key();
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        xor_stream(&key, 0, &[1; 12], &mut a);
        xor_stream(&key, 0, &[2; 12], &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn counter_advances_per_block() {
        let key = test_key();
        let nonce = [3u8; 12];
        // Stream of 128 zeros == two consecutive blocks.
        let mut long = vec![0u8; 128];
        xor_stream(&key, 5, &nonce, &mut long);
        assert_eq!(long[..64], block(&key, 5, &nonce));
        assert_eq!(long[64..], block(&key, 6, &nonce));
    }
}
