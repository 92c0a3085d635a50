//! The BLE link-layer CRC: 24 bits, polynomial
//! x²⁴+x¹⁰+x⁹+x⁶+x⁴+x³+x+1, processed LSB-first, initialised to
//! `0x555555` on advertising channels.

/// CRC initial value on advertising channels.
pub const ADV_CRC_INIT: u32 = 0x55_5555;

/// Compute the 24-bit CRC over `data` with the given init value.
///
/// Bits are processed least-significant first within each byte, matching
/// the air order. The returned value's low 24 bits are significant.
pub fn crc24(init: u32, data: &[u8]) -> u32 {
    let mut lfsr = init & 0xFF_FFFF;
    for &byte in data {
        for bit in 0..8 {
            let input = (byte >> bit) & 1;
            let msb = ((lfsr >> 23) & 1) as u8;
            let feedback = input ^ msb;
            lfsr = (lfsr << 1) & 0xFF_FFFF;
            if feedback != 0 {
                // Taps at x^10, x^9, x^6, x^4, x^3, x^1, x^0.
                lfsr ^= 0x00_065B;
            }
        }
    }
    lfsr
}

/// Serialize a CRC value in air order (LSB of the register transmitted
/// first — i.e. bit 23 down to bit 0 reversed per the spec; practically,
/// the register's bits reversed into 3 bytes).
pub fn crc_to_air_bytes(crc: u32) -> [u8; 3] {
    // The spec transmits the CRC register MSB (bit 23) first; grouping
    // into bytes LSB-first means byte 0 holds bits 23..16 reversed.
    let mut out = [0u8; 3];
    for i in 0..24 {
        let bit = (crc >> (23 - i)) & 1;
        out[i / 8] |= (bit as u8) << (i % 8);
    }
    out
}

/// Append the advertising-channel CRC for `pdu` to a frame buffer.
pub(crate) fn append_adv_crc(frame: &mut Vec<u8>, pdu: &[u8]) {
    let crc = crc24(ADV_CRC_INIT, pdu);
    frame.extend_from_slice(&crc_to_air_bytes(crc));
}

/// Verify the advertising CRC over `pdu` against the trailing 3 bytes of
/// `crc_bytes`.
pub fn check_adv_crc(pdu: &[u8], crc_bytes: &[u8; 3]) -> bool {
    crc_to_air_bytes(crc24(ADV_CRC_INIT, pdu)) == *crc_bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_is_deterministic_and_24_bit() {
        let c = crc24(ADV_CRC_INIT, b"advertising pdu contents");
        assert_eq!(c, crc24(ADV_CRC_INIT, b"advertising pdu contents"));
        assert!(c <= 0xFF_FFFF);
    }

    #[test]
    fn different_data_different_crc() {
        assert_ne!(crc24(ADV_CRC_INIT, b"aaaa"), crc24(ADV_CRC_INIT, b"aaab"));
    }

    #[test]
    fn init_value_matters() {
        assert_ne!(crc24(ADV_CRC_INIT, b"x"), crc24(0, b"x"));
    }

    #[test]
    fn empty_data_returns_init() {
        assert_eq!(crc24(ADV_CRC_INIT, &[]), ADV_CRC_INIT);
    }

    #[test]
    fn air_bytes_round_trip_verification() {
        let pdu = b"some pdu";
        let mut frame = Vec::new();
        append_adv_crc(&mut frame, pdu);
        assert_eq!(frame.len(), 3);
        let crc_bytes: [u8; 3] = frame[..3].try_into().unwrap();
        assert!(check_adv_crc(pdu, &crc_bytes));
        assert!(!check_adv_crc(b"other pdu", &crc_bytes));
    }

    #[test]
    fn single_bit_errors_detected() {
        let pdu = b"payload under test".to_vec();
        let crc = crc_to_air_bytes(crc24(ADV_CRC_INIT, &pdu));
        for i in 0..pdu.len() {
            for bit in 0..8 {
                let mut bad = pdu.clone();
                bad[i] ^= 1 << bit;
                assert!(!check_adv_crc(&bad, &crc), "bit {bit} of byte {i}");
            }
        }
    }
}
