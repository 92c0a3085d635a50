//! Exact energy integration over state traces.
//!
//! The paper computes energy per packet by "measur\[ing\] the time the
//! microcontroller and WiFi module are on while transmitting a packet …
//! the average power consumption during this time … then multiply these
//! numbers" (§5.4). Here the integral is exact: current is piecewise
//! constant over state spans.

use wile_device::{CurrentModel, StateTrace};
use wile_radio::time::Instant;

/// Exact charge drawn between `from` and `to`, millicoulombs.
pub(crate) fn charge_mc(
    trace: &StateTrace,
    model: &CurrentModel,
    from: Instant,
    to: Instant,
) -> f64 {
    assert!(to >= from);
    trace
        .spans(to)
        .into_iter()
        .filter(|s| s.end > from)
        .map(|s| {
            let start = if s.start > from { s.start } else { from };
            model.current_ma(s.state) * s.end.since(start).as_secs_f64()
        })
        .sum()
}

/// Exact energy drawn between `from` and `to`, millijoules
/// (charge × supply voltage).
pub fn energy_mj(trace: &StateTrace, model: &CurrentModel, from: Instant, to: Instant) -> f64 {
    charge_mc(trace, model, from, to) * model.supply_v
}

/// Average power (mW) of a periodic duty cycle, per the paper's
/// Equation (1): `Pavg = (Ptx·Ttx + Pidle·(INT − Ttx)) / INT`.
pub fn eq1_average_power_mw(ptx_mw: f64, ttx_s: f64, pidle_mw: f64, interval_s: f64) -> f64 {
    assert!(interval_s > 0.0 && ttx_s >= 0.0 && ttx_s <= interval_s);
    (ptx_mw * ttx_s + pidle_mw * (interval_s - ttx_s)) / interval_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use wile_device::Mcu;
    use wile_device::PowerState;
    use wile_radio::time::Duration;

    fn tx_cycle() -> (StateTrace, CurrentModel) {
        let mut m = Mcu::esp32(Instant::ZERO);
        m.begin_phase("Sleep");
        m.stay(PowerState::DeepSleep, Duration::from_ms(100));
        m.begin_phase("Tx");
        m.stay(
            PowerState::RadioTx { power_dbm: 0.0 },
            Duration::from_us(131),
        );
        m.begin_phase("Sleep2");
        m.set_state(PowerState::DeepSleep);
        m.wait_until(Instant::from_ms(200));
        m.end_phase();
        let model = *m.model();
        (m.into_trace(), model)
    }

    #[test]
    fn exact_integration_of_known_square_wave() {
        let (trace, model) = tx_cycle();
        // Tx: 195 mA × 131 µs × 3.3 V = 84.3 µJ.
        let tx_start = Instant::from_ms(100);
        let tx_end = tx_start + Duration::from_us(131);
        let mj = energy_mj(&trace, &model, tx_start, tx_end);
        assert!((mj * 1000.0 - 84.3).abs() < 0.2, "got {} µJ", mj * 1000.0);
    }

    #[test]
    fn wile_table1_number_emerges() {
        // The headline: a Wi-LE transmit window integrates to ≈84 µJ.
        let (trace, model) = tx_cycle();
        let tx = &trace.phases()[1];
        assert_eq!(tx.label, "Tx");
        let tx_uj = energy_mj(&trace, &model, tx.start, tx.end) * 1000.0;
        assert!((tx_uj - 84.0).abs() < 2.0, "got {tx_uj} µJ");
    }

    #[test]
    fn phase_report_covers_all_phases() {
        let (trace, model) = tx_cycle();
        let phases = trace.phases();
        let labels: Vec<&str> = phases.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["Sleep", "Tx", "Sleep2"]);
        // Phases partition the window, so their energies sum to total.
        let sum: f64 = phases
            .iter()
            .map(|p| energy_mj(&trace, &model, p.start, p.end))
            .sum();
        let total = energy_mj(&trace, &model, Instant::ZERO, Instant::from_ms(200));
        assert!((sum - total).abs() < 1e-9);
    }

    #[test]
    fn charge_window_clipping() {
        let (trace, model) = tx_cycle();
        let full = charge_mc(&trace, &model, Instant::ZERO, Instant::from_ms(200));
        let first_half = charge_mc(&trace, &model, Instant::ZERO, Instant::from_ms(100));
        let second_half = charge_mc(&trace, &model, Instant::from_ms(100), Instant::from_ms(200));
        assert!((first_half + second_half - full).abs() < 1e-12);
    }

    #[test]
    fn sampled_vs_exact_agree_within_sampling_error() {
        use crate::multimeter::Multimeter;
        let (trace, model) = tx_cycle();
        let mm = Multimeter::keysight_34465a();
        let ct = mm.sample(&trace, &model, Instant::ZERO, Instant::from_ms(200));
        let exact = charge_mc(&trace, &model, Instant::ZERO, Instant::from_ms(200));
        // 131 µs spike at 20 µs sampling: ±1.5 sample of 195 mA error
        // bound ≈ 0.006 mC.
        assert!(
            (ct.charge_mc() - exact).abs() < 0.01,
            "sampled {} exact {exact}",
            ct.charge_mc()
        );
    }

    #[test]
    fn eq1_matches_hand_computation() {
        // Ptx 500 mW for 1 s out of every 60 s, idle 1 mW.
        let p = eq1_average_power_mw(500.0, 1.0, 1.0, 60.0);
        assert!((p - (500.0 + 59.0) / 60.0).abs() < 1e-12);
    }

    #[test]
    fn eq1_limits() {
        // Zero tx time → idle power.
        assert_eq!(eq1_average_power_mw(500.0, 0.0, 2.5, 10.0), 2.5);
        // Always transmitting → tx power.
        assert_eq!(eq1_average_power_mw(500.0, 10.0, 2.5, 10.0), 500.0);
    }

    #[test]
    #[should_panic]
    fn eq1_rejects_ttx_longer_than_interval() {
        eq1_average_power_mw(1.0, 2.0, 0.5, 1.0);
    }

    #[test]
    fn average_power_over_cycle() {
        let (trace, model) = tx_cycle();
        let mw = energy_mj(&trace, &model, Instant::ZERO, Instant::from_ms(200)) / 0.2;
        // Dominated by the tx spike: ~84 µJ over 0.2 s ≈ 0.42 mW plus
        // tiny sleep floor.
        assert!(mw > 0.4 && mw < 0.5, "{mw}");
    }
}
