//! Per-frame airtime computation.
//!
//! Airtime is the on-air duration of one PPDU: PHY preamble + header +
//! payload symbols. The energy model multiplies airtime by TX power draw
//! to cost each transmission, so these formulas follow the standard
//! timings:
//!
//! * DSSS long preamble: 144 µs preamble + 48 µs PLCP header, then
//!   payload at the data rate;
//! * OFDM: 16 µs preamble + 4 µs SIGNAL, then 4 µs symbols carrying
//!   `bits_per_symbol` data bits each, with 16 SERVICE + 6 tail bits;
//! * HT mixed mode: 36 µs of legacy + HT preamble (L-STF 8, L-LTF 8,
//!   L-SIG 4, HT-SIG 8, HT-STF 4, HT-LTF 4), then 4 µs (LGI) or 3.6 µs
//!   (SGI) symbols.

use super::rates::PhyRate;

/// On-air duration of a PPDU carrying an MPDU of `mpdu_len` bytes
/// (including FCS) at `rate`, in microseconds (rounded up).
pub fn frame_airtime_us(rate: PhyRate, mpdu_len: usize) -> u64 {
    let bits = mpdu_len as u64 * 8;
    match rate {
        PhyRate::Dsss1 | PhyRate::Dsss2 | PhyRate::Cck5_5 | PhyRate::Cck11 => {
            // Long preamble (144 µs) + PLCP header (48 µs) + payload.
            let kbps = rate.kbps() as u64;
            192 + div_ceil(bits * 1_000, kbps)
        }
        PhyRate::Ofdm(_) => {
            let nbps = rate.bits_per_symbol().unwrap() as u64;
            let symbols = div_ceil(16 + 6 + bits, nbps);
            20 + symbols * 4
        }
        PhyRate::Ht { sgi, .. } => {
            let nbps = rate.bits_per_symbol().unwrap() as u64;
            let symbols = div_ceil(16 + 6 + bits, nbps);
            // Mixed-mode preamble: 36 µs with one HT-LTF (single stream).
            let sym_ns = if sgi { 3_600 } else { 4_000 };
            36 + div_ceil(symbols * sym_ns, 1_000)
        }
    }
}

/// Airtime of an ACK (14-byte MPDU) at the standard response rate for
/// `data_rate` — the highest mandatory rate not exceeding the data rate.
pub fn ack_airtime_us(data_rate: PhyRate) -> u64 {
    let ack_rate = match data_rate {
        PhyRate::Dsss1 => PhyRate::Dsss1,
        PhyRate::Dsss2 | PhyRate::Cck5_5 | PhyRate::Cck11 => PhyRate::Dsss2,
        PhyRate::Ofdm(m) if m >= 24 => PhyRate::Ofdm(24),
        PhyRate::Ofdm(m) if m >= 12 => PhyRate::Ofdm(12),
        PhyRate::Ofdm(_) => PhyRate::Ofdm(6),
        PhyRate::Ht { .. } => PhyRate::Ofdm(24),
    };
    frame_airtime_us(ack_rate, crate::ctrl::ACK_LEN)
}

fn div_ceil(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dsss1_beacon_airtime() {
        // A 100-byte beacon at 1 Mb/s: 192 + 800 = 992 µs.
        assert_eq!(frame_airtime_us(PhyRate::Dsss1, 100), 992);
    }

    #[test]
    fn ofdm6_small_frame() {
        // 14-byte ACK at 6 Mb/s: 20 + ceil((22+112)/24)*4 = 20 + 6*4 = 44 µs.
        assert_eq!(frame_airtime_us(PhyRate::Ofdm(6), 14), 44);
    }

    #[test]
    fn ofdm54_vs_ofdm6_ordering() {
        let slow = frame_airtime_us(PhyRate::Ofdm(6), 1500);
        let fast = frame_airtime_us(PhyRate::Ofdm(54), 1500);
        assert!(fast < slow);
        // 1500 B at 54: 20 + ceil(12022/216)*4 = 20 + 56*4 = 244.
        assert_eq!(fast, 244);
    }

    #[test]
    fn paper_rate_beacon_is_tens_of_microseconds() {
        // A ~128-byte Wi-LE beacon at 72.2 Mb/s: preamble-dominated.
        let t = frame_airtime_us(PhyRate::WILE_PAPER, 128);
        assert!((36..=60).contains(&t), "got {t}");
    }

    #[test]
    fn sgi_never_slower() {
        for mcs in 0..=7u8 {
            for len in [14usize, 128, 1500] {
                let l = frame_airtime_us(PhyRate::Ht { mcs, sgi: false }, len);
                let s = frame_airtime_us(PhyRate::Ht { mcs, sgi: true }, len);
                assert!(s <= l, "mcs {mcs} len {len}");
            }
        }
    }

    #[test]
    fn airtime_monotone_in_length() {
        for rate in PhyRate::all() {
            let a = frame_airtime_us(rate, 50);
            let b = frame_airtime_us(rate, 500);
            let c = frame_airtime_us(rate, 1500);
            assert!(a <= b && b <= c, "{rate:?}");
        }
    }

    #[test]
    fn ack_rate_selection() {
        // ACKs to HT data go at OFDM 24; 14 bytes -> 20 + ceil(134/96)*4 = 28.
        assert_eq!(ack_airtime_us(PhyRate::WILE_PAPER), 28);
        // ACK to DSSS-1 data stays at 1 Mb/s.
        assert_eq!(ack_airtime_us(PhyRate::Dsss1), 192 + 112);
    }
}
