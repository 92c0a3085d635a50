//! SNR → packet error rate.
//!
//! We use the standard waterfall approximation: each modulation family
//! has a threshold SNR at which a 1000-byte frame decodes with ~50 %
//! loss, and a logistic transition a couple of dB wide. Shorter frames
//! shift the curve left (fewer bits at risk). This reproduces the
//! qualitative behaviour rate adaptation and range arguments rely on
//! without a full link-level simulation.

/// Packet error rate for a frame of `len_bytes` at `snr_db`, where the
/// modulation is summarized by its `min_snr_db` decode threshold (see
/// `wile_dot11::phy::PhyRate::min_snr_db`).
///
/// Returns a probability in `[0, 1]`.
pub fn packet_error_rate(snr_db: f64, min_snr_db: f64, len_bytes: usize) -> f64 {
    // Threshold is quoted for 1000-byte frames; each decade of length
    // shifts it by ~1.5 dB.
    let len_shift = 1.5 * ((len_bytes.max(1) as f64) / 1000.0).log10();
    let midpoint = min_snr_db + len_shift;
    let width = 1.2; // dB from mid to ~88% / ~12%
    let x = (snr_db - midpoint) / width;
    1.0 / (1.0 + x.exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_decreasing_in_snr() {
        let mut last = 1.0;
        for snr in -10..40 {
            let per = packet_error_rate(snr as f64, 15.0, 1000);
            assert!(per <= last + 1e-12, "snr {snr}");
            last = per;
        }
    }

    #[test]
    fn midpoint_is_half() {
        let per = packet_error_rate(15.0, 15.0, 1000);
        assert!((per - 0.5).abs() < 1e-9);
    }

    #[test]
    fn strong_signal_near_zero_loss() {
        assert!(packet_error_rate(40.0, 15.0, 1000) < 1e-6);
    }

    #[test]
    fn weak_signal_near_total_loss() {
        assert!(packet_error_rate(0.0, 15.0, 1000) > 0.999);
    }

    #[test]
    fn shorter_frames_survive_better() {
        let snr = 15.0;
        let short = packet_error_rate(snr, 15.0, 50);
        let long = packet_error_rate(snr, 15.0, 1500);
        assert!(short < long);
    }

    #[test]
    fn per_in_unit_interval() {
        for snr in [-50.0, 0.0, 14.9, 15.1, 100.0] {
            for len in [1usize, 100, 2304] {
                let p = packet_error_rate(snr, 15.0, len);
                assert!((0.0..=1.0).contains(&p), "snr {snr} len {len}");
            }
        }
    }
}
