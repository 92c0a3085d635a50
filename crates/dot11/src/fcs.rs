//! Frame check sequence: the CRC-32 appended to every 802.11 MPDU.
//!
//! 802.11 uses the same CRC-32 as IEEE 802.3 (polynomial `0x04C11DB7`,
//! reflected form `0xEDB88320`, initial value and final XOR `0xFFFF_FFFF`),
//! transmitted least-significant byte first.

/// Reflected generator polynomial of the IEEE CRC-32.
pub(crate) const POLY_REFLECTED: u32 = 0xEDB8_8320;

/// CRC-32 over `data`, as used for the 802.11 FCS.
///
/// ```
/// // The classic check vector for CRC-32/ISO-HDLC.
/// assert_eq!(wile_dot11::fcs::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    !update(0xFFFF_FFFF, data)
}

/// Incremental CRC-32, for computing an FCS over scattered buffers.
///
/// ```
/// use wile_dot11::fcs::{crc32, Crc32};
/// let mut inc = Crc32::new();
/// inc.update(b"1234");
/// inc.update(b"56789");
/// assert_eq!(inc.finish(), crc32(b"123456789"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Start a fresh CRC computation.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `data` into the running CRC.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Finish and return the CRC value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// Append the 4-byte FCS (little-endian, i.e. LSB first as transmitted)
/// to a frame body.
pub fn append_fcs(frame: &mut Vec<u8>) {
    let fcs = crc32(frame);
    frame.extend_from_slice(&fcs.to_le_bytes());
}

/// Check the trailing FCS of `frame` (which must include the 4 FCS bytes).
///
/// Returns `true` when the FCS matches the preceding bytes.
pub fn check_fcs(frame: &[u8]) -> bool {
    if frame.len() < 4 {
        return false;
    }
    let (body, tail) = frame.split_at(frame.len() - 4);
    let want = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
    crc32(body) == want
}

/// Strip a verified FCS, returning the frame body, or `None` if the FCS
/// does not match.
pub fn strip_fcs(frame: &[u8]) -> Option<&[u8]> {
    if check_fcs(frame) {
        Some(&frame[..frame.len() - 4])
    } else {
        None
    }
}

/// Fold `data` into the raw (un-inverted) CRC register, slicing-by-8:
/// each 8-byte step looks up every byte in its own table and XORs the
/// eight results, so the steps carry no byte-to-byte dependency. The
/// 0–7 byte tail goes one byte at a time.
fn update(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// `TABLES[0]` is the classic byte table; `TABLES[k][i]` is the CRC
/// register after byte `i` is followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY_REFLECTED
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The specification the sliced kernel must match: the textbook
    /// byte-at-a-time table loop.
    fn reference_crc32(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Check `crc32` and `Crc32::update` split at every point against
    /// the reference.
    fn assert_matches_reference(data: &[u8]) {
        let want = reference_crc32(data);
        assert_eq!(crc32(data), want, "len {}", data.len());
        for split in 0..=data.len() {
            let mut inc = Crc32::new();
            inc.update(&data[..split]);
            inc.update(&data[split..]);
            assert_eq!(inc.finish(), want, "len {} split {split}", data.len());
        }
    }

    #[test]
    fn sliced_matches_reference_at_every_length_and_alignment() {
        // A fixed pseudo-random buffer; every length 0..=300 at every
        // start offset 0..8, so the 8-byte steps see every alignment
        // and every tail length.
        let mut x = 0x9E37_79B9u32;
        let buf: Vec<u8> = (0..308)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=300 {
                assert_matches_reference(&buf[offset..offset + len]);
            }
        }
    }

    proptest! {
        #[test]
        fn sliced_matches_reference_on_random_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..=300),
            offset in 0usize..8,
        ) {
            let offset = offset.min(data.len());
            assert_matches_reference(&data[offset..]);
        }
    }

    #[test]
    fn check_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        // CRC-32 of the empty string is 0.
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn single_zero_byte() {
        assert_eq!(crc32(&[0u8]), 0xD202_EF8D);
    }

    #[test]
    fn fcs_of_frame_plus_fcs_is_residue() {
        // Appending a correct CRC and re-running the CRC over the whole
        // buffer yields the fixed residue 0x2144DF1C -- a classic CRC-32
        // identity hardware checkers rely on.
        let mut frame = b"any frame at all".to_vec();
        append_fcs(&mut frame);
        assert_eq!(crc32(&frame), 0x2144_DF1C);
    }

    #[test]
    fn append_then_check_round_trips() {
        let mut frame = b"beacon frame body".to_vec();
        append_fcs(&mut frame);
        assert!(check_fcs(&frame));
        assert_eq!(strip_fcs(&frame), Some(&b"beacon frame body"[..]));
    }

    #[test]
    fn corruption_is_detected() {
        let mut frame = b"beacon frame body".to_vec();
        append_fcs(&mut frame);
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert!(!check_fcs(&bad), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn short_frames_fail_check() {
        assert!(!check_fcs(&[]));
        assert!(!check_fcs(&[1, 2, 3]));
        assert_eq!(strip_fcs(&[1, 2, 3]), None);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).collect();
        for split in [0usize, 1, 7, 128, 255, 256] {
            let mut inc = Crc32::new();
            inc.update(&data[..split]);
            inc.update(&data[split..]);
            assert_eq!(inc.finish(), crc32(&data), "split at {split}");
        }
    }
}
