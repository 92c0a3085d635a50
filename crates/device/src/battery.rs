//! Battery-lifetime estimation.
//!
//! §5.4 of the paper: "This is why BLE modules can run on a small button
//! battery for over a year." This module turns an average current into a
//! lifetime so that claim can be checked against all four scenarios.

/// A primary (non-rechargeable) battery.
#[derive(Debug, Clone, Copy)]
pub struct Battery {
    /// Usable capacity, milliamp-hours.
    pub(crate) capacity_mah: f64,
    /// Annual self-discharge fraction (0.01 = 1 %/year).
    pub(crate) self_discharge_per_year: f64,
}

impl Battery {
    /// A CR2032 coin cell (the classic BLE button battery).
    pub fn cr2032() -> Self {
        Battery {
            capacity_mah: 225.0,
            self_discharge_per_year: 0.01,
        }
    }

    /// Two AA lithium cells.
    pub fn aa_pair() -> Self {
        Battery {
            capacity_mah: 3000.0,
            self_discharge_per_year: 0.02,
        }
    }

    /// Estimated lifetime in days at a constant average draw of
    /// `avg_current_ma`, accounting for self-discharge as an equivalent
    /// parallel load.
    pub fn lifetime_days(&self, avg_current_ma: f64) -> f64 {
        assert!(avg_current_ma >= 0.0);
        // Self-discharge as mA: capacity × rate / (365·24 h).
        let self_ma = self.capacity_mah * self.self_discharge_per_year / (365.0 * 24.0);
        let total = avg_current_ma + self_ma;
        if total <= 0.0 {
            return f64::INFINITY;
        }
        self.capacity_mah / total / 24.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ble_idle_on_coin_cell_exceeds_a_year() {
        // Table 1: BLE idle current 1.1 µA. Even with a transmission
        // every 10 min the average stays in single-digit µA.
        let b = Battery::cr2032();
        assert!(b.lifetime_days(0.0011) > 365.0);
        assert!(b.lifetime_days(0.005) > 365.0);
    }

    #[test]
    fn wifi_ps_idle_kills_coin_cell_in_days() {
        // Table 1: WiFi-PS idle 4.5 mA → 225 mAh / 4.5 mA ≈ 50 h ≈ 2 days.
        let b = Battery::cr2032();
        let days = b.lifetime_days(4.5);
        assert!(days > 1.5 && days < 3.0, "{days}");
    }

    #[test]
    fn self_discharge_bounds_zero_load_lifetime() {
        let b = Battery::cr2032();
        let days = b.lifetime_days(0.0);
        // 1 %/year self-discharge → ~100-year bound, not infinity.
        assert!(days.is_finite());
        assert!(days > 30_000.0);
    }

    #[test]
    fn bigger_battery_lasts_longer() {
        let coin = Battery::cr2032();
        let aa = Battery::aa_pair();
        assert!(aa.lifetime_days(0.01) > coin.lifetime_days(0.01));
    }

    #[test]
    #[should_panic]
    fn negative_current_rejected() {
        Battery::cr2032().lifetime_days(-1.0);
    }
}
