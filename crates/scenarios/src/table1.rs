//! Table 1: "Energy required to transmit a message using different
//! technologies and their idle current comparison."

use crate::scenario::ScenarioResult;
use crate::{ble, wifi_dc, wifi_ps, wile_sc};

/// The assembled table, in the paper's column order.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Wi-LE column.
    pub wile: ScenarioResult,
    /// BLE column.
    pub ble: ScenarioResult,
    /// WiFi-DC column.
    pub wifi_dc: ScenarioResult,
    /// WiFi-PS column.
    pub wifi_ps: ScenarioResult,
}

impl Table1 {
    /// The columns in paper order.
    pub fn columns(&self) -> [&ScenarioResult; 4] {
        [&self.wile, &self.ble, &self.wifi_dc, &self.wifi_ps]
    }
}

/// Run all four scenarios and assemble the table.
pub fn table1() -> Table1 {
    Table1 {
        wile: wile_sc::table1_row(),
        ble: ble::table1_row(),
        wifi_dc: wifi_dc::table1_row(),
        wifi_ps: wifi_ps::table1_row(),
    }
}

/// The paper's reference values for regression checks:
/// (energy mJ, idle mA) per column.
pub const PAPER_VALUES: [(&str, f64, f64); 4] = [
    ("Wi-LE", 0.084, 0.0025),
    ("BLE", 0.071, 0.0011),
    ("WiFi-DC", 238.2, 0.0025),
    ("WiFi-PS", 19.8, 4.5),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_column_within_acceptance_band() {
        let t = table1();
        for (col, (name, paper_mj, paper_idle)) in t.columns().iter().zip(PAPER_VALUES) {
            assert_eq!(col.name, name);
            let rel = (col.energy_per_packet_mj - paper_mj).abs() / paper_mj;
            assert!(
                rel < 0.20,
                "{name}: {} vs paper {paper_mj} mJ",
                col.energy_per_packet_mj
            );
            assert!(
                (col.idle_current_ma - paper_idle).abs() / paper_idle < 0.01,
                "{name} idle"
            );
        }
    }

    #[test]
    fn ordering_matches_paper() {
        // BLE < Wi-LE << WiFi-PS << WiFi-DC on energy/packet.
        let t = table1();
        assert!(t.ble.energy_per_packet_mj < t.wile.energy_per_packet_mj);
        assert!(t.wile.energy_per_packet_mj * 100.0 < t.wifi_ps.energy_per_packet_mj);
        assert!(t.wifi_ps.energy_per_packet_mj * 5.0 < t.wifi_dc.energy_per_packet_mj);
        // Idle: BLE < Wi-LE = WiFi-DC << WiFi-PS.
        assert!(t.ble.idle_current_ma < t.wile.idle_current_ma);
        assert_eq!(t.wile.idle_current_ma, t.wifi_dc.idle_current_ma);
        assert!(t.wifi_ps.idle_current_ma / t.wifi_dc.idle_current_ma > 1000.0);
    }
}
