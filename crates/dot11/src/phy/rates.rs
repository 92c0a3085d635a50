//! Transmission rates of 802.11b/g/n (20 MHz, one spatial stream — the
//! ESP32's capability set).

/// Underlying modulation + coding, used by the channel model to map SNR
/// to bit error rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Modulation {
    /// 1 Mb/s DBPSK (802.11 DSSS).
    Dbpsk,
    /// 2 Mb/s DQPSK.
    Dqpsk,
    /// 5.5/11 Mb/s CCK.
    Cck,
    /// OFDM BPSK rate-1/2 or 3/4.
    Bpsk { coding_num: u8, coding_den: u8 },
    /// OFDM QPSK.
    Qpsk { coding_num: u8, coding_den: u8 },
    /// OFDM 16-QAM.
    Qam16 { coding_num: u8, coding_den: u8 },
    /// OFDM 64-QAM.
    Qam64 { coding_num: u8, coding_den: u8 },
}

/// A PHY rate the simulated radios can transmit at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhyRate {
    /// 802.11 DSSS 1 Mb/s.
    Dsss1,
    /// 802.11 DSSS 2 Mb/s.
    Dsss2,
    /// 802.11b CCK 5.5 Mb/s.
    Cck5_5,
    /// 802.11b CCK 11 Mb/s.
    Cck11,
    /// 802.11g OFDM, legacy rate in Mb/s (6, 9, 12, 18, 24, 36, 48, 54).
    Ofdm(u8),
    /// 802.11n HT20 MCS 0–7; `sgi` selects the 400 ns short guard interval.
    Ht {
        /// Modulation and coding scheme index, 0–7.
        mcs: u8,
        /// Short guard interval (400 ns instead of 800 ns).
        sgi: bool,
    },
}

impl PhyRate {
    /// The rate the paper transmits Wi-LE beacons at: MCS 7, SGI → 72.2 Mb/s.
    pub const WILE_PAPER: PhyRate = PhyRate::Ht { mcs: 7, sgi: true };

    /// Data rate in kilobits per second.
    pub fn kbps(self) -> u32 {
        match self {
            PhyRate::Dsss1 => 1_000,
            PhyRate::Dsss2 => 2_000,
            PhyRate::Cck5_5 => 5_500,
            PhyRate::Cck11 => 11_000,
            PhyRate::Ofdm(mbps) => mbps as u32 * 1_000,
            PhyRate::Ht { mcs, sgi } => {
                // HT20 single stream: data subcarriers 52, symbol 4 µs
                // (LGI) or 3.6 µs (SGI).
                let base = match mcs {
                    0 => 6_500,
                    1 => 13_000,
                    2 => 19_500,
                    3 => 26_000,
                    4 => 39_000,
                    5 => 52_000,
                    6 => 58_500,
                    7 => 65_000,
                    _ => 0,
                };
                if sgi {
                    // ×10/9 for the shorter symbol.
                    base * 10 / 9
                } else {
                    base
                }
            }
        }
    }

    /// Data bits carried per OFDM symbol (OFDM/HT rates only).
    pub(crate) fn bits_per_symbol(self) -> Option<u32> {
        match self {
            PhyRate::Ofdm(mbps) => Some(match mbps {
                6 => 24,
                9 => 36,
                12 => 48,
                18 => 72,
                24 => 96,
                36 => 144,
                48 => 192,
                54 => 216,
                _ => return None,
            }),
            PhyRate::Ht { mcs, .. } => Some(match mcs {
                0 => 26,
                1 => 52,
                2 => 78,
                3 => 104,
                4 => 156,
                5 => 208,
                6 => 234,
                7 => 260,
                _ => return None,
            }),
            _ => None,
        }
    }

    /// The modulation behind this rate, for SNR→BER mapping.
    pub(crate) fn modulation(self) -> Modulation {
        match self {
            PhyRate::Dsss1 => Modulation::Dbpsk,
            PhyRate::Dsss2 => Modulation::Dqpsk,
            PhyRate::Cck5_5 | PhyRate::Cck11 => Modulation::Cck,
            PhyRate::Ofdm(6) => Modulation::Bpsk {
                coding_num: 1,
                coding_den: 2,
            },
            PhyRate::Ofdm(9) => Modulation::Bpsk {
                coding_num: 3,
                coding_den: 4,
            },
            PhyRate::Ofdm(12) => Modulation::Qpsk {
                coding_num: 1,
                coding_den: 2,
            },
            PhyRate::Ofdm(18) => Modulation::Qpsk {
                coding_num: 3,
                coding_den: 4,
            },
            PhyRate::Ofdm(24) => Modulation::Qam16 {
                coding_num: 1,
                coding_den: 2,
            },
            PhyRate::Ofdm(36) => Modulation::Qam16 {
                coding_num: 3,
                coding_den: 4,
            },
            PhyRate::Ofdm(48) => Modulation::Qam64 {
                coding_num: 2,
                coding_den: 3,
            },
            PhyRate::Ofdm(_) => Modulation::Qam64 {
                coding_num: 3,
                coding_den: 4,
            },
            PhyRate::Ht { mcs: 0, .. } => Modulation::Bpsk {
                coding_num: 1,
                coding_den: 2,
            },
            PhyRate::Ht { mcs: 1, .. } => Modulation::Qpsk {
                coding_num: 1,
                coding_den: 2,
            },
            PhyRate::Ht { mcs: 2, .. } => Modulation::Qpsk {
                coding_num: 3,
                coding_den: 4,
            },
            PhyRate::Ht { mcs: 3, .. } => Modulation::Qam16 {
                coding_num: 1,
                coding_den: 2,
            },
            PhyRate::Ht { mcs: 4, .. } => Modulation::Qam16 {
                coding_num: 3,
                coding_den: 4,
            },
            PhyRate::Ht { mcs: 5, .. } => Modulation::Qam64 {
                coding_num: 2,
                coding_den: 3,
            },
            PhyRate::Ht { mcs: 6, .. } => Modulation::Qam64 {
                coding_num: 3,
                coding_den: 4,
            },
            PhyRate::Ht { .. } => Modulation::Qam64 {
                coding_num: 5,
                coding_den: 6,
            },
        }
    }

    /// Minimum SNR (dB) at which this rate decodes with usable PER, a
    /// standard rule-of-thumb sensitivity ladder.
    pub fn min_snr_db(self) -> f64 {
        match self.modulation() {
            Modulation::Dbpsk => 4.0,
            Modulation::Dqpsk => 6.0,
            Modulation::Cck => 8.0,
            Modulation::Bpsk { .. } => 5.0,
            Modulation::Qpsk { coding_num: 1, .. } => 8.0,
            Modulation::Qpsk { .. } => 10.0,
            Modulation::Qam16 { coding_num: 1, .. } => 14.0,
            Modulation::Qam16 { .. } => 17.0,
            Modulation::Qam64 { coding_num: 2, .. } => 21.0,
            Modulation::Qam64 { coding_num: 3, .. } => 23.0,
            Modulation::Qam64 { .. } => 25.0,
        }
    }

    /// Every rate this crate models, lowest to highest — handy for sweeps.
    pub fn all() -> Vec<PhyRate> {
        let mut v = vec![
            PhyRate::Dsss1,
            PhyRate::Dsss2,
            PhyRate::Cck5_5,
            PhyRate::Cck11,
        ];
        for mbps in [6u8, 9, 12, 18, 24, 36, 48, 54] {
            v.push(PhyRate::Ofdm(mbps));
        }
        for mcs in 0..=7u8 {
            v.push(PhyRate::Ht { mcs, sgi: false });
        }
        for mcs in 0..=7u8 {
            v.push(PhyRate::Ht { mcs, sgi: true });
        }
        v
    }
}

impl core::fmt::Display for PhyRate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let kbps = self.kbps();
        if kbps.is_multiple_of(1000) {
            write!(f, "{} Mb/s", kbps / 1000)
        } else {
            write!(f, "{:.1} Mb/s", kbps as f64 / 1000.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rate_is_72_2_mbps() {
        assert_eq!(PhyRate::WILE_PAPER.kbps(), 72_222); // 65000 * 10 / 9
    }

    #[test]
    fn dsss_rates() {
        assert_eq!(PhyRate::Dsss1.kbps(), 1_000);
        assert_eq!(PhyRate::Cck11.kbps(), 11_000);
    }

    #[test]
    fn ofdm_bits_per_symbol_consistent_with_rate() {
        // rate = bits_per_symbol / 4 µs
        for mbps in [6u8, 9, 12, 18, 24, 36, 48, 54] {
            let r = PhyRate::Ofdm(mbps);
            assert_eq!(r.bits_per_symbol().unwrap(), mbps as u32 * 4, "{mbps}");
        }
    }

    #[test]
    fn ht_lgi_bits_per_symbol_consistent() {
        for mcs in 0..=7u8 {
            let r = PhyRate::Ht { mcs, sgi: false };
            // kbps = bits_per_symbol / 4µs = bps * 250
            assert_eq!(r.kbps(), r.bits_per_symbol().unwrap() * 250, "mcs {mcs}");
        }
    }

    #[test]
    fn sgi_is_ten_ninths_faster() {
        for mcs in 0..=7u8 {
            let l = PhyRate::Ht { mcs, sgi: false }.kbps();
            let s = PhyRate::Ht { mcs, sgi: true }.kbps();
            assert_eq!(s, l * 10 / 9);
        }
    }

    #[test]
    fn snr_ladder_is_monotone_within_family() {
        let ofdm: Vec<f64> = [6u8, 12, 24, 48]
            .iter()
            .map(|&m| PhyRate::Ofdm(m).min_snr_db())
            .collect();
        assert!(ofdm.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn all_rates_have_positive_rate() {
        for r in PhyRate::all() {
            assert!(r.kbps() > 0, "{r:?}");
        }
        assert_eq!(PhyRate::all().len(), 4 + 8 + 16);
    }

    #[test]
    fn display_formats() {
        assert_eq!(PhyRate::Cck5_5.to_string(), "5.5 Mb/s");
        assert_eq!(PhyRate::Ofdm(54).to_string(), "54 Mb/s");
        assert_eq!(PhyRate::WILE_PAPER.to_string(), "72.2 Mb/s");
    }
}
