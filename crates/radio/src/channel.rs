//! Propagation model: log-distance path loss with optional log-normal
//! shadowing, plus the receiver noise floor.
//!
//! The paper's §5.4 range statement — "a physical bitrate of 72 Mbps at
//! transmission power of 0 dBm … has a similar range as BLE at the same
//! transmission power (i.e., a few meters)" — falls out of this model:
//! at 0 dBm and path-loss exponent 3, MCS7's ~25 dB SNR requirement dies
//! within a handful of meters, while 1 Mb/s DSSS reaches tens of meters.

/// Propagation and receiver-front-end parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChannelModel {
    /// Path loss at the reference distance (1 m), dB. ~40 dB at 2.4 GHz.
    pub pl0_db: f64,
    /// Path-loss exponent (2 = free space, 3–4 = indoor).
    pub exponent: f64,
    /// Thermal-noise floor for a 20 MHz channel, dBm.
    pub noise_floor_dbm: f64,
    /// Receiver noise figure, dB.
    pub noise_figure_db: f64,
    /// Log-normal shadowing standard deviation, dB (0 = deterministic).
    pub shadowing_sigma_db: f64,
}

impl Default for ChannelModel {
    fn default() -> Self {
        ChannelModel {
            pl0_db: 40.0,
            exponent: 3.0,
            noise_floor_dbm: -101.0,
            noise_figure_db: 6.0,
            shadowing_sigma_db: 0.0,
        }
    }
}

impl ChannelModel {
    /// Path loss in dB over `distance_m` metres (clamped below 0.1 m).
    pub fn path_loss_db(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(0.1);
        self.pl0_db + 10.0 * self.exponent * d.log10()
    }

    /// Received power in dBm for a transmit power and distance.
    pub fn rx_power_dbm(&self, tx_power_dbm: f64, distance_m: f64) -> f64 {
        tx_power_dbm - self.path_loss_db(distance_m)
    }

    /// Effective noise level the SNR is computed against, dBm.
    pub fn effective_noise_dbm(&self) -> f64 {
        self.noise_floor_dbm + self.noise_figure_db
    }

    /// Signal-to-noise ratio in dB at the receiver.
    pub fn snr_db(&self, tx_power_dbm: f64, distance_m: f64) -> f64 {
        self.rx_power_dbm(tx_power_dbm, distance_m) - self.effective_noise_dbm()
    }

    /// The largest distance at which `min_snr_db` is still met (metres),
    /// ignoring shadowing. Solves the path-loss equation for d.
    pub fn range_for_snr_m(&self, tx_power_dbm: f64, min_snr_db: f64) -> f64 {
        let budget = tx_power_dbm - self.effective_noise_dbm() - min_snr_db - self.pl0_db;
        10f64.powf(budget / (10.0 * self.exponent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_loss_increases_with_distance() {
        let c = ChannelModel::default();
        assert!(c.path_loss_db(10.0) > c.path_loss_db(1.0));
        // 1 m = reference loss.
        assert!((c.path_loss_db(1.0) - 40.0).abs() < 1e-9);
        // One decade of distance adds 10·n dB.
        assert!((c.path_loss_db(10.0) - 70.0).abs() < 1e-9);
    }

    #[test]
    fn snr_at_one_meter_is_strong() {
        let c = ChannelModel::default();
        // 0 dBm at 1 m: rx = -40 dBm, noise = -95 dBm, SNR = 55 dB.
        assert!((c.snr_db(0.0, 1.0) - 55.0).abs() < 1e-9);
    }

    #[test]
    fn range_inverts_snr() {
        let c = ChannelModel::default();
        for snr in [5.0, 15.0, 25.0] {
            let d = c.range_for_snr_m(0.0, snr);
            assert!((c.snr_db(0.0, d) - snr).abs() < 1e-6, "snr {snr}");
        }
    }

    #[test]
    fn paper_range_claim_qualitatively_holds() {
        // At 0 dBm: MCS7 (needs ~25 dB) reaches a few metres; DSSS-1
        // (needs ~4 dB) reaches tens of metres.
        let c = ChannelModel::default();
        let mcs7_range = c.range_for_snr_m(0.0, 25.0);
        let dsss_range = c.range_for_snr_m(0.0, 4.0);
        assert!(mcs7_range > 2.0 && mcs7_range < 15.0, "mcs7 {mcs7_range}");
        assert!(dsss_range > 30.0, "dsss {dsss_range}");
        assert!(dsss_range / mcs7_range > 4.0);
    }

    #[test]
    fn distance_clamped_near_zero() {
        let c = ChannelModel::default();
        assert_eq!(c.path_loss_db(0.0), c.path_loss_db(0.1));
        assert!(c.path_loss_db(0.0) < c.path_loss_db(1.0));
    }

    #[test]
    fn higher_tx_power_more_range() {
        let c = ChannelModel::default();
        assert!(c.range_for_snr_m(20.0, 25.0) > c.range_for_snr_m(0.0, 25.0));
    }
}
