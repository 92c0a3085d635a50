//! Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! Implemented over five 26-bit limbs in `u64` arithmetic — the standard
//! portable formulation, no bignum dependency.

/// Key length, bytes (16-byte `r` + 16-byte `s`).
pub(crate) const KEY_LEN: usize = 32;
/// Tag length, bytes.
pub const TAG_LEN: usize = 16;

/// Streaming Poly1305 state.
#[derive(Clone)]
pub struct Poly1305 {
    r: [u64; 5],
    s: [u32; 4],
    acc: [u64; 5],
    buf: [u8; 16],
    buf_len: usize,
}

impl core::fmt::Debug for Poly1305 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        f.write_str("Poly1305 { .. }")
    }
}

impl Poly1305 {
    /// Initialize with a 32-byte one-time key.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        // r with the RFC-mandated clamping.
        let r0 = u32::from_le_bytes(key[0..4].try_into().unwrap()) & 0x0FFF_FFFF;
        let r1 = u32::from_le_bytes(key[4..8].try_into().unwrap()) & 0x0FFF_FFFC;
        let r2 = u32::from_le_bytes(key[8..12].try_into().unwrap()) & 0x0FFF_FFFC;
        let r3 = u32::from_le_bytes(key[12..16].try_into().unwrap()) & 0x0FFF_FFFC;
        // Split into 26-bit limbs.
        let r = [
            (r0 & 0x3FF_FFFF) as u64,
            (((r0 >> 26) | (r1 << 6)) & 0x3FF_FFFF) as u64,
            (((r1 >> 20) | (r2 << 12)) & 0x3FF_FFFF) as u64,
            (((r2 >> 14) | (r3 << 18)) & 0x3FF_FFFF) as u64,
            ((r3 >> 8) & 0x3FF_FFFF) as u64,
        ];
        let s = [
            u32::from_le_bytes(key[16..20].try_into().unwrap()),
            u32::from_le_bytes(key[20..24].try_into().unwrap()),
            u32::from_le_bytes(key[24..28].try_into().unwrap()),
            u32::from_le_bytes(key[28..32].try_into().unwrap()),
        ];
        Poly1305 {
            r,
            s,
            acc: [0; 5],
            buf: [0; 16],
            buf_len: 0,
        }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 16 {
                let block = self.buf;
                self.process(&block, 1);
                self.buf_len = 0;
            }
        }
        while data.len() >= 16 {
            let mut block = [0u8; 16];
            block.copy_from_slice(&data[..16]);
            self.process(&block, 1);
            data = &data[16..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finish, producing the 16-byte tag.
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buf_len > 0 {
            // Final partial block: append the 0x01 byte inside the block.
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            self.process(&block, 0);
        }
        // Full carry propagation.
        let mut acc = self.acc;
        carry_reduce(&mut acc);
        // Compute g = acc + 5; if that carries out of bit 130 then
        // acc >= p = 2^130 - 5 and g (mod 2^130) is the reduced value.
        let mut g = [0u64; 5];
        let mut carry = 5u64;
        for (gi, &a) in g.iter_mut().zip(acc.iter()) {
            *gi = a + carry;
            carry = *gi >> 26;
            *gi &= 0x3FF_FFFF;
        }
        // carry is now 1 iff acc >= p; select constant-time-ish.
        let mask = 0u64.wrapping_sub(carry & 1);
        let mut sel = [0u64; 5];
        for i in 0..5 {
            sel[i] = (g[i] & mask) | (acc[i] & !mask);
        }
        // Convert limbs back to 128-bit little-endian and add s.
        let h0 = sel[0] | (sel[1] << 26);
        let h1 = (sel[1] >> 6) | (sel[2] << 20);
        let h2 = (sel[2] >> 12) | (sel[3] << 14);
        let h3 = (sel[3] >> 18) | (sel[4] << 8);
        let words = [h0 as u32, h1 as u32, h2 as u32, h3 as u32];
        let mut out = [0u8; 16];
        let mut carry2 = 0u64;
        for i in 0..4 {
            let v = words[i] as u64 + self.s[i] as u64 + carry2;
            out[i * 4..i * 4 + 4].copy_from_slice(&(v as u32).to_le_bytes());
            carry2 = v >> 32;
        }
        out
    }

    fn process(&mut self, block: &[u8; 16], hibit: u64) {
        let t0 = u32::from_le_bytes(block[0..4].try_into().unwrap()) as u64;
        let t1 = u32::from_le_bytes(block[4..8].try_into().unwrap()) as u64;
        let t2 = u32::from_le_bytes(block[8..12].try_into().unwrap()) as u64;
        let t3 = u32::from_le_bytes(block[12..16].try_into().unwrap()) as u64;

        self.acc[0] += t0 & 0x3FF_FFFF;
        self.acc[1] += ((t0 >> 26) | (t1 << 6)) & 0x3FF_FFFF;
        self.acc[2] += ((t1 >> 20) | (t2 << 12)) & 0x3FF_FFFF;
        self.acc[3] += ((t2 >> 14) | (t3 << 18)) & 0x3FF_FFFF;
        self.acc[4] += (t3 >> 8) | (hibit << 24);

        // acc *= r (mod 2^130 - 5), schoolbook with 5·r folding.
        let [a0, a1, a2, a3, a4] = self.acc;
        let [r0, r1, r2, r3, r4] = self.r;
        let s1 = r1 * 5;
        let s2 = r2 * 5;
        let s3 = r3 * 5;
        let s4 = r4 * 5;

        let d0 = (a0 as u128) * r0 as u128
            + (a1 as u128) * s4 as u128
            + (a2 as u128) * s3 as u128
            + (a3 as u128) * s2 as u128
            + (a4 as u128) * s1 as u128;
        let d1 = (a0 as u128) * r1 as u128
            + (a1 as u128) * r0 as u128
            + (a2 as u128) * s4 as u128
            + (a3 as u128) * s3 as u128
            + (a4 as u128) * s2 as u128;
        let d2 = (a0 as u128) * r2 as u128
            + (a1 as u128) * r1 as u128
            + (a2 as u128) * r0 as u128
            + (a3 as u128) * s4 as u128
            + (a4 as u128) * s3 as u128;
        let d3 = (a0 as u128) * r3 as u128
            + (a1 as u128) * r2 as u128
            + (a2 as u128) * r1 as u128
            + (a3 as u128) * r0 as u128
            + (a4 as u128) * s4 as u128;
        let d4 = (a0 as u128) * r4 as u128
            + (a1 as u128) * r3 as u128
            + (a2 as u128) * r2 as u128
            + (a3 as u128) * r1 as u128
            + (a4 as u128) * r0 as u128;

        let mut c: u128;
        let mut h0 = d0 & 0x3FF_FFFF;
        c = d0 >> 26;
        let d1 = d1 + c;
        let h1 = d1 & 0x3FF_FFFF;
        c = d1 >> 26;
        let d2 = d2 + c;
        let h2 = d2 & 0x3FF_FFFF;
        c = d2 >> 26;
        let d3 = d3 + c;
        let h3 = d3 & 0x3FF_FFFF;
        c = d3 >> 26;
        let d4 = d4 + c;
        let h4 = d4 & 0x3FF_FFFF;
        c = d4 >> 26;
        h0 += (c as u64 as u128) * 5;
        let h0f = (h0 & 0x3FF_FFFF) as u64;
        let h1f = h1 as u64 + (h0 >> 26) as u64;

        self.acc = [h0f, h1f, h2 as u64, h3 as u64, h4 as u64];
    }
}

fn carry_reduce(acc: &mut [u64; 5]) {
    let mut carry = 0u64;
    for _ in 0..2 {
        for limb in acc.iter_mut() {
            *limb += carry;
            carry = *limb >> 26;
            *limb &= 0x3FF_FFFF;
        }
        carry *= 5;
    }
    acc[0] += carry;
    let c = acc[0] >> 26;
    acc[0] &= 0x3FF_FFFF;
    acc[1] += c;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-shot tag.
    fn poly1305(key: &[u8; KEY_LEN], msg: &[u8]) -> [u8; TAG_LEN] {
        let mut p = Poly1305::new(key);
        p.update(msg);
        p.finalize()
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn rfc8439_vector() {
        // RFC 8439 §2.5.2.
        let key: [u8; 32] =
            unhex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
                .try_into()
                .unwrap();
        let tag = poly1305(&key, b"Cryptographic Forum Research Group");
        assert_eq!(hex(&tag), "a8061dc1305136c6c22b8baf0c0127a9");
    }

    #[test]
    fn rfc8439_a3_vector2() {
        // RFC 8439 appendix A.3 test vector #2: r = 0, s = key2, any text.
        let mut key = [0u8; 32];
        let s_part = unhex("36e5f6b5c5e06070f0efca96227a863e");
        key[16..].copy_from_slice(&s_part);
        let msg = b"Any submission to the IETF intended by the Contributor for publi\
cation as all or part of an IETF Internet-Draft or RFC and any statement made within the \
context of an IETF activity is considered an \"IETF Contribution\". Such statements includ\
e oral statements in IETF sessions, as well as written and electronic communications made \
at any time or place, which are addressed to";
        let tag = poly1305(&key, msg);
        assert_eq!(hex(&tag), "36e5f6b5c5e06070f0efca96227a863e");
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key = [0x42u8; 32];
        let msg: Vec<u8> = (0..100u8).collect();
        let want = poly1305(&key, &msg);
        for split in [0usize, 1, 15, 16, 17, 31, 32, 99, 100] {
            let mut p = Poly1305::new(&key);
            p.update(&msg[..split]);
            p.update(&msg[split..]);
            assert_eq!(p.finalize(), want, "split {split}");
        }
    }

    #[test]
    fn empty_message() {
        let key = [1u8; 32];
        // Tag of empty message is just s.
        let tag = poly1305(&key, b"");
        assert_eq!(tag, key[16..32]);
    }

    #[test]
    fn tag_depends_on_message() {
        let key = [9u8; 32];
        assert_ne!(poly1305(&key, b"aaaa"), poly1305(&key, b"aaab"));
    }

    #[test]
    fn debug_hides_key() {
        let p = Poly1305::new(&[7u8; 32]);
        assert_eq!(format!("{p:?}"), "Poly1305 { .. }");
    }
}
