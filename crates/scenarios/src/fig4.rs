//! Figure 4: "The comparison of overall power consumption for different
//! transmission intervals" — Equation (1) swept over INT ∈ (0, 5 min]
//! for all four technologies, log-scale y.

use crate::scenario::ScenarioResult;
use crate::table1::{table1, Table1};

/// One curve of the figure: (interval minutes, average power mW).
#[derive(Debug, Clone)]
pub struct Curve {
    /// Legend name.
    pub name: &'static str,
    /// Points, in increasing interval order.
    pub points: Vec<(f64, f64)>,
}

/// The whole figure.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// The four curves, paper legend order (WiFi-PS, WiFi-DC, WiLE, BLE).
    pub curves: Vec<Curve>,
    /// The interval grid, minutes.
    pub intervals_min: Vec<f64>,
}

/// Default interval grid: 0.05 to 5 minutes in 0.05-minute steps (the
/// paper plots 0–5 minutes; Eq. (1) needs INT > Ttx, so the grid starts
/// above the longest active window).
pub fn default_grid() -> Vec<f64> {
    (1..=100).map(|i| i as f64 * 0.05).collect()
}

fn curve(result: &ScenarioResult, grid: &[f64]) -> Curve {
    Curve {
        name: result.name,
        points: grid
            .iter()
            .filter(|&&m| m * 60.0 > result.ttx_s)
            .map(|&m| (m, result.average_power_mw(m * 60.0)))
            .collect(),
    }
}

/// Build the figure from freshly run scenarios.
pub fn fig4() -> Fig4 {
    fig4_from(&table1(), &default_grid())
}

/// Build the figure from existing scenario results on a custom grid.
pub fn fig4_from(t: &Table1, grid: &[f64]) -> Fig4 {
    Fig4 {
        curves: vec![
            curve(&t.wifi_ps, grid),
            curve(&t.wifi_dc, grid),
            curve(&t.wile, grid),
            curve(&t.ble, grid),
        ],
        intervals_min: grid.to_vec(),
    }
}

impl Fig4 {
    /// Look up a curve by name.
    pub fn curve(&self, name: &str) -> Option<&Curve> {
        self.curves.iter().find(|c| c.name == name)
    }

    /// The WiFi-PS / WiFi-DC crossover interval (minutes), if the curves
    /// cross on the grid: below it PS wins, above it DC wins (§5.5).
    pub fn ps_dc_crossover_min(&self) -> Option<f64> {
        let ps = self.curve("WiFi-PS")?;
        let dc = self.curve("WiFi-DC")?;
        let mut prev: Option<(f64, bool)> = None;
        for (p, d) in ps.points.iter().zip(&dc.points) {
            debug_assert_eq!(p.0, d.0);
            let dc_wins = d.1 < p.1;
            if let Some((x, was)) = prev {
                if was != dc_wins {
                    return Some((x + p.0) / 2.0);
                }
            }
            prev = Some((p.0, dc_wins));
        }
        None
    }

    /// Ratio of the best WiFi curve to the Wi-LE curve at `minutes`.
    pub fn wifi_to_wile_ratio(&self, minutes: f64) -> f64 {
        let at = |name: &str| {
            self.curve(name)
                .and_then(|c| {
                    c.points
                        .iter()
                        .min_by(|a, b| {
                            (a.0 - minutes)
                                .abs()
                                .partial_cmp(&(b.0 - minutes).abs())
                                .unwrap()
                        })
                        .map(|p| p.1)
                })
                .unwrap()
        };
        at("WiFi-PS").min(at("WiFi-DC")) / at("Wi-LE")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_curves_monotone_decreasing() {
        let f = fig4();
        for c in &f.curves {
            for w in c.points.windows(2) {
                assert!(w[1].1 <= w[0].1 + 1e-12, "{} rises at {}", c.name, w[1].0);
            }
        }
    }

    #[test]
    fn crossover_exists_below_one_minute() {
        // §5.5: "if a device transmits its data more than once per
        // minute WiFi-PS outperforms WiFi-DC … if the transmission
        // period is longer, WiFi-DC performs better." With Table 1's own
        // numbers the computed crossover sits near 0.27 min (see
        // EXPERIMENTS.md for the discrepancy discussion).
        let f = fig4();
        let x = f.ps_dc_crossover_min().expect("crossover on grid");
        assert!((0.1..=1.0).contains(&x), "crossover at {x} min");
    }

    #[test]
    fn ps_wins_below_crossover_dc_above() {
        let f = fig4();
        let x = f.ps_dc_crossover_min().unwrap();
        let ps = f.curve("WiFi-PS").unwrap();
        let dc = f.curve("WiFi-DC").unwrap();
        let before = ps
            .points
            .iter()
            .zip(&dc.points)
            .find(|(p, _)| p.0 < x - 0.05);
        let after = ps.points.iter().zip(&dc.points).next_back();
        let (p, d) = before.expect("grid point before crossover");
        assert!(p.1 < d.1, "PS should win before crossover");
        let (p, d) = after.unwrap();
        assert!(d.1 < p.1, "DC should win at 5 min");
    }

    #[test]
    fn wile_tracks_ble_within_small_factor() {
        // "the power consumption of Wi-LE is close to that of BLE."
        let f = fig4();
        let wile = f.curve("Wi-LE").unwrap();
        let ble = f.curve("BLE").unwrap();
        for (w, b) in wile.points.iter().zip(&ble.points) {
            let ratio = w.1 / b.1;
            assert!((0.5..=3.0).contains(&ratio), "ratio {ratio} at {} min", w.0);
        }
    }

    #[test]
    fn wile_is_orders_of_magnitude_below_wifi() {
        // "generally about 3 orders of magnitude lower than any of the
        // WiFi solutions." Exact factor depends on INT; we require >2
        // orders everywhere on the grid and >2.5 orders at 1 min.
        let f = fig4();
        for &m in &[0.5, 1.0, 2.0, 5.0] {
            let r = f.wifi_to_wile_ratio(m);
            assert!(r > 90.0, "ratio {r} at {m} min");
        }
        assert!(f.wifi_to_wile_ratio(1.0) > 316.0);
    }

    #[test]
    fn y_range_matches_papers_axis() {
        // The paper's y-axis spans 10⁻⁴ to 10³ mW; every plotted point
        // must fall inside it.
        let f = fig4();
        for c in &f.curves {
            for &(_, y) in &c.points {
                assert!(y > 1e-4 && y < 1e3, "{} point {y}", c.name);
            }
        }
    }

    #[test]
    fn eq1_matches_long_simulation() {
        // Cross-validate Eq. (1) against an actual simulated hour of
        // Wi-LE at INT = 60 s: trace integration and the formula must
        // agree within a couple of percent.
        use wile_instrument::energy::energy_mj;
        use wile_radio::time::Instant;
        let runs = 60usize;
        let run = crate::wile_sc::run(runs, b"t=21.5C", 60);
        let model = run.injector.model();
        let start = Instant::from_ms(200);
        let end = start + wile_radio::time::Duration::from_secs(60 * runs as u64);
        let sim_mw = energy_mj(run.injector.trace(), &model, start, end) / (60.0 * runs as f64);
        let eq1_mw = crate::wile_sc::full_cycle_row().average_power_mw(60.0);
        let rel = (sim_mw - eq1_mw).abs() / eq1_mw;
        assert!(rel < 0.03, "sim {sim_mw} vs eq1 {eq1_mw}");
    }
}
