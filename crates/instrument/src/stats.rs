//! Waveform statistics beyond the mean: RMS, percentiles, duty-cycle —
//! the quantities a power engineer reads off a captured trace.

use crate::multimeter::CurrentTrace;

/// Root-mean-square current, mA (what sizes the supply's thermal load).
pub(crate) fn rms_ma(trace: &CurrentTrace) -> f64 {
    if trace.samples_ma.is_empty() {
        return 0.0;
    }
    let sq: f64 = trace.samples_ma.iter().map(|x| x * x).sum();
    (sq / trace.samples_ma.len() as f64).sqrt()
}

/// The `q`-quantile of the samples (q in [0, 1]), by nearest-rank.
pub fn percentile_ma(trace: &CurrentTrace, q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q));
    if trace.samples_ma.is_empty() {
        return 0.0;
    }
    let mut sorted = trace.samples_ma.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Fraction of samples above `threshold_ma` — the active duty cycle of
/// the waveform.
pub fn duty_cycle_above(trace: &CurrentTrace, threshold_ma: f64) -> f64 {
    if trace.samples_ma.is_empty() {
        return 0.0;
    }
    trace
        .samples_ma
        .iter()
        .filter(|&&x| x > threshold_ma)
        .count() as f64
        / trace.samples_ma.len() as f64
}

/// Crest factor: peak / RMS. High values (like a Wi-LE trace's ~hundreds)
/// mean a battery sees brief heavy pulses — relevant for coin cells,
/// whose usable capacity collapses under high pulse currents.
pub fn crest_factor(trace: &CurrentTrace) -> f64 {
    let rms = rms_ma(trace);
    if rms == 0.0 {
        return 0.0;
    }
    trace.peak_ma() / rms
}

#[cfg(test)]
mod tests {
    use super::*;
    use wile_radio::time::{Duration, Instant};

    fn trace(samples: Vec<f64>) -> CurrentTrace {
        CurrentTrace {
            start: Instant::ZERO,
            sample_interval: Duration::from_us(20),
            samples_ma: samples,
        }
    }

    #[test]
    fn rms_of_constant_is_itself() {
        assert!((rms_ma(&trace(vec![5.0; 100])) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rms_of_square_wave() {
        // Half 0, half 10: RMS = 10/√2 ≈ 7.071.
        let mut s = vec![0.0; 50];
        s.extend(vec![10.0; 50]);
        assert!((rms_ma(&trace(s)) - 10.0 / 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn percentiles() {
        let t = trace((0..=100).map(|i| i as f64).collect());
        assert_eq!(percentile_ma(&t, 0.0), 0.0);
        assert_eq!(percentile_ma(&t, 0.5), 50.0);
        assert_eq!(percentile_ma(&t, 1.0), 100.0);
        assert_eq!(percentile_ma(&t, 0.95), 95.0);
    }

    #[test]
    fn duty_cycle() {
        let mut s = vec![0.001; 90];
        s.extend(vec![200.0; 10]);
        let t = trace(s);
        assert!((duty_cycle_above(&t, 1.0) - 0.1).abs() < 1e-12);
        assert_eq!(duty_cycle_above(&t, 500.0), 0.0);
    }

    #[test]
    fn wile_trace_has_extreme_crest_factor() {
        // A Wi-LE-like waveform: deep sleep with a 195 mA needle.
        let mut s = vec![0.0025; 99_990];
        s.extend(vec![195.0; 10]);
        let cf = crest_factor(&trace(s));
        assert!(cf > 50.0, "crest {cf}");
    }

    #[test]
    fn empty_trace_is_zeroes() {
        let t = trace(vec![]);
        assert_eq!(rms_ma(&t), 0.0);
        assert_eq!(percentile_ma(&t, 0.5), 0.0);
        assert_eq!(duty_cycle_above(&t, 1.0), 0.0);
        assert_eq!(crest_factor(&t), 0.0);
    }

    #[test]
    #[should_panic]
    fn quantile_out_of_range() {
        percentile_ma(&trace(vec![1.0]), 1.5);
    }
}
