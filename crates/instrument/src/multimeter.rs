//! Sampling a state trace into a current waveform.

use crate::waveform::Waveform;
use wile_device::{CurrentModel, StateTrace};
use wile_radio::time::{Duration, Instant};

/// A sampled current waveform: uniform sample spacing, values in mA.
#[derive(Debug, Clone)]
pub struct CurrentTrace {
    /// Time of the first sample.
    pub start: Instant,
    /// Spacing between samples.
    pub sample_interval: Duration,
    /// Current samples, milliamps.
    pub samples_ma: Vec<f64>,
}

impl CurrentTrace {
    /// Timestamp of sample `i`.
    pub(crate) fn time_of(&self, i: usize) -> Instant {
        self.start + Duration::from_nanos(self.sample_interval.as_nanos() * i as u64)
    }

    /// Duration covered by the trace.
    pub(crate) fn duration(&self) -> Duration {
        Duration::from_nanos(self.sample_interval.as_nanos() * self.samples_ma.len() as u64)
    }

    /// Peak current, mA (0 for an empty trace).
    pub fn peak_ma(&self) -> f64 {
        self.samples_ma.iter().copied().fold(0.0, f64::max)
    }

    /// Mean current, mA (0 for an empty trace).
    pub(crate) fn mean_ma(&self) -> f64 {
        if self.samples_ma.is_empty() {
            return 0.0;
        }
        self.samples_ma.iter().sum::<f64>() / self.samples_ma.len() as f64
    }

    /// Charge by rectangle rule, millicoulombs.
    pub fn charge_mc(&self) -> f64 {
        self.mean_ma() * self.duration().as_secs_f64()
    }

    /// Downsample by an integer factor (mean of each bucket) — used when
    /// rendering multi-second figures at terminal width.
    pub fn downsample(&self, factor: usize) -> CurrentTrace {
        assert!(factor >= 1);
        let samples_ma = self
            .samples_ma
            .chunks(factor)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        CurrentTrace {
            start: self.start,
            sample_interval: Duration::from_nanos(self.sample_interval.as_nanos() * factor as u64),
            samples_ma,
        }
    }
}

/// The simulated digital multimeter.
#[derive(Debug, Clone, Copy)]
pub struct Multimeter {
    /// Samples per second. The paper's instrument: 50 000.
    pub sample_rate_hz: u64,
}

impl Multimeter {
    /// The paper's Keysight 34465A configuration.
    pub fn keysight_34465a() -> Self {
        Multimeter {
            sample_rate_hz: 50_000,
        }
    }

    /// Sample the device current between `from` and `to`.
    ///
    /// Each sample reads the state at its own timestamp — exactly what a
    /// real sampling DMM does; sub-sample spikes shorter than 20 µs can
    /// be missed, which is why energy accounting should use
    /// [`crate::energy::energy_mj`] (exact span integration) and traces
    /// are for *plotting*. The divergence between the two is itself
    /// measured in this crate's tests.
    ///
    /// Implemented as [`Multimeter::capture`] followed by
    /// [`Waveform::materialize`]; the result is sample-for-sample
    /// identical to reading the state trace at every sample instant.
    pub fn sample(
        &self,
        trace: &StateTrace,
        model: &CurrentModel,
        from: Instant,
        to: Instant,
    ) -> CurrentTrace {
        self.capture(trace, model, from, to)
            .materialize(self.sample_rate_hz)
    }

    /// Capture the window as a compact piecewise-constant [`Waveform`]
    /// — O(state transitions) memory instead of O(duration × rate) —
    /// which can be analysed exactly or materialized densely later.
    pub fn capture(
        &self,
        trace: &StateTrace,
        model: &CurrentModel,
        from: Instant,
        to: Instant,
    ) -> Waveform {
        Waveform::capture(trace, model, from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wile_device::{Mcu, PowerState};

    fn device_with_square_wave() -> (StateTrace, CurrentModel) {
        let mut m = Mcu::esp32(Instant::ZERO);
        m.stay(PowerState::DeepSleep, Duration::from_ms(100));
        m.stay(PowerState::RadioListen, Duration::from_ms(100));
        m.deep_sleep();
        let model = *m.model();
        (m.into_trace(), model)
    }

    #[test]
    fn sample_count_matches_rate() {
        let (trace, model) = device_with_square_wave();
        let mm = Multimeter::keysight_34465a();
        let ct = mm.sample(&trace, &model, Instant::ZERO, Instant::from_ms(200));
        assert_eq!(ct.samples_ma.len(), 10_000); // 0.2 s × 50 kS/s
        assert_eq!(ct.sample_interval, Duration::from_us(20));
    }

    #[test]
    fn waveform_tracks_states() {
        let (trace, model) = device_with_square_wave();
        let mm = Multimeter::keysight_34465a();
        let ct = mm.sample(&trace, &model, Instant::ZERO, Instant::from_ms(200));
        // First half deep sleep (2.5 µA), second half listen (95 mA).
        assert!(ct.samples_ma[100] < 0.01);
        assert!(ct.samples_ma[7_500] > 90.0);
        assert!((ct.peak_ma() - 95.0).abs() < 1e-9);
    }

    #[test]
    fn mean_of_square_wave() {
        let (trace, model) = device_with_square_wave();
        let mm = Multimeter::keysight_34465a();
        let ct = mm.sample(&trace, &model, Instant::ZERO, Instant::from_ms(200));
        let expect = (0.0025 + 95.0) / 2.0;
        assert!((ct.mean_ma() - expect).abs() < 0.5, "{}", ct.mean_ma());
    }

    #[test]
    fn sub_sample_spike_can_be_missed_at_low_rate() {
        // A 46 µs TX spike sampled at 1 kS/s (1 ms spacing) is usually
        // invisible -- the reason the paper needed a fast DMM.
        let mut m = Mcu::esp32(Instant::ZERO);
        // Offset the spike off the 1 ms sampling grid.
        m.stay(PowerState::DeepSleep, Duration::from_us(10_400));
        m.stay(
            PowerState::RadioTx { power_dbm: 0.0 },
            Duration::from_us(46),
        );
        m.stay(PowerState::DeepSleep, Duration::from_us(9_554));
        let model = *m.model();
        let trace = m.into_trace();
        let slow = Multimeter {
            sample_rate_hz: 1_000,
        };
        let ct = slow.sample(&trace, &model, Instant::ZERO, Instant::from_ms(20));
        assert!(
            ct.peak_ma() < 1.0,
            "1 kS/s saw the spike at {} mA",
            ct.peak_ma()
        );
        // The paper-grade rate sees it.
        let fast = Multimeter {
            sample_rate_hz: 50_000,
        };
        let ct = fast.sample(&trace, &model, Instant::ZERO, Instant::from_ms(20));
        assert!(ct.peak_ma() > 150.0);
    }

    #[test]
    fn downsample_preserves_mean() {
        let (trace, model) = device_with_square_wave();
        let mm = Multimeter::keysight_34465a();
        let ct = mm.sample(&trace, &model, Instant::ZERO, Instant::from_ms(200));
        let ds = ct.downsample(100);
        assert_eq!(ds.samples_ma.len(), 100);
        assert!((ds.mean_ma() - ct.mean_ma()).abs() < 1e-9);
        assert_eq!(ds.duration(), ct.duration());
    }

    #[test]
    fn empty_window() {
        let (trace, model) = device_with_square_wave();
        let mm = Multimeter::keysight_34465a();
        let ct = mm.sample(&trace, &model, Instant::from_ms(5), Instant::from_ms(5));
        assert!(ct.samples_ma.is_empty());
        assert_eq!(ct.mean_ma(), 0.0);
        assert_eq!(ct.charge_mc(), 0.0);
    }
}
