//! Piecewise-constant current waveforms.
//!
//! A device's current draw is piecewise constant *by construction* — it
//! only changes when the power-state machine transitions. Storing a
//! 50 kS/s sample vector for a mostly-sleeping device therefore wastes
//! five orders of magnitude of memory repeating the sleep current.
//!
//! [`Waveform`] stores one `(start, mA)` entry per state transition in
//! the capture window: O(transitions) instead of O(duration × rate).
//! Statistics (mean, RMS, charge, duty cycle) are computed *exactly* by
//! integrating segments, and a dense [`CurrentTrace`] for plotting or
//! CSV export is materialized lazily with
//! [`Waveform::materialize`] — sample-for-sample identical to what
//! [`crate::Multimeter::sample`] has always produced, which that method
//! now delegates through this type.

use crate::multimeter::CurrentTrace;
use wile_device::{CurrentModel, StateTrace};
use wile_radio::time::{Duration, Instant};

/// A current waveform stored as maximal constant segments.
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    start: Instant,
    end: Instant,
    /// `(segment start, current mA)`; the first entry starts at
    /// `self.start`, entries are strictly increasing in time, and
    /// adjacent entries differ in value. Each segment extends to the
    /// next entry's start (the last to `self.end`).
    segments: Vec<(Instant, f64)>,
}

impl Waveform {
    /// Capture the current waveform of `trace` under `model` over
    /// `[from, to)`. Instants before the first recorded transition draw
    /// 0 mA, exactly like the sampling path always has.
    pub(crate) fn capture(
        trace: &StateTrace,
        model: &CurrentModel,
        from: Instant,
        to: Instant,
    ) -> Waveform {
        assert!(to >= from);
        let at_start = trace
            .state_at(from)
            .map(|s| model.current_ma(s))
            .unwrap_or(0.0);
        let mut raw: Vec<(Instant, f64)> = vec![(from, at_start)];
        for &(t, s) in trace.transitions() {
            if t <= from {
                continue;
            }
            if t >= to {
                break;
            }
            let ma = model.current_ma(s);
            match raw.last_mut() {
                // Two transitions at one instant: the later one is the
                // state actually occupied after that instant.
                Some(last) if last.0 == t => last.1 = ma,
                _ => raw.push((t, ma)),
            }
        }
        // Coalesce distinct states that happen to draw the same current.
        let mut segments: Vec<(Instant, f64)> = Vec::with_capacity(raw.len());
        for (t, ma) in raw {
            match segments.last() {
                Some(&(_, prev)) if prev == ma => {}
                _ => segments.push((t, ma)),
            }
        }
        Waveform {
            start: from,
            end: to,
            segments,
        }
    }

    /// Duration covered.
    pub fn duration(&self) -> Duration {
        self.end.since(self.start)
    }

    /// Number of constant segments stored.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The stored segments as `(start, end, mA)` triples.
    pub(crate) fn segments(&self) -> impl Iterator<Item = (Instant, Instant, f64)> + '_ {
        self.segments.iter().enumerate().map(move |(i, &(t, ma))| {
            let end = self
                .segments
                .get(i + 1)
                .map(|&(n, _)| n)
                .unwrap_or(self.end);
            (t, end, ma)
        })
    }

    /// Peak current, mA (never negative; an empty window reads 0).
    pub fn peak_ma(&self) -> f64 {
        if self.duration() == Duration::ZERO {
            return 0.0;
        }
        self.segments.iter().map(|&(_, ma)| ma).fold(0.0, f64::max)
    }

    /// Exact fraction of the window spent above `threshold_ma`.
    pub fn duty_cycle_above(&self, threshold_ma: f64) -> f64 {
        let t = self.duration().as_secs_f64();
        if t == 0.0 {
            return 0.0;
        }
        let above: f64 = self
            .segments()
            .filter(|&(_, _, ma)| ma > threshold_ma)
            .map(|(s, e, _)| e.since(s).as_secs_f64())
            .sum();
        above / t
    }

    /// Materialize a dense uniform-rate [`CurrentTrace`].
    ///
    /// Sample `i` is taken at `start + i / rate`, reading the segment
    /// that contains that instant — bit-identical to sampling the
    /// original state trace point by point, because segment boundaries
    /// *are* the transition instants.
    pub fn materialize(&self, sample_rate_hz: u64) -> CurrentTrace {
        let interval = Duration::from_nanos(1_000_000_000 / sample_rate_hz);
        let n = (self.end.since(self.start).as_nanos() / interval.as_nanos()) as usize;
        let mut samples = Vec::with_capacity(n);
        let mut idx = 0usize;
        for i in 0..n {
            let t = self.start + Duration::from_nanos(interval.as_nanos() * i as u64);
            while idx + 1 < self.segments.len() && self.segments[idx + 1].0 <= t {
                idx += 1;
            }
            samples.push(self.segments.get(idx).map(|&(_, ma)| ma).unwrap_or(0.0));
        }
        CurrentTrace {
            start: self.start,
            sample_interval: interval,
            samples_ma: samples,
        }
    }

    /// Bytes this representation holds resident.
    pub fn memory_bytes(&self) -> usize {
        self.segments.len() * std::mem::size_of::<(Instant, f64)>()
    }

    /// Bytes a dense sample vector over the same window at
    /// `sample_rate_hz` would hold resident.
    pub fn dense_memory_bytes(&self, sample_rate_hz: u64) -> usize {
        let interval = 1_000_000_000 / sample_rate_hz;
        (self.end.since(self.start).as_nanos() / interval) as usize * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multimeter::Multimeter;
    use wile_device::{Mcu, PowerState};

    fn square_wave() -> (StateTrace, CurrentModel) {
        let mut m = Mcu::esp32(Instant::ZERO);
        m.stay(PowerState::DeepSleep, Duration::from_ms(100));
        m.stay(PowerState::RadioListen, Duration::from_ms(100));
        m.deep_sleep();
        let model = *m.model();
        (m.into_trace(), model)
    }

    /// The original per-sample implementation, kept inline as the
    /// reference for materialization identity.
    fn sample_reference(
        rate: u64,
        trace: &StateTrace,
        model: &CurrentModel,
        from: Instant,
        to: Instant,
    ) -> Vec<f64> {
        let interval = Duration::from_nanos(1_000_000_000 / rate);
        let n = (to.since(from).as_nanos() / interval.as_nanos()) as usize;
        (0..n)
            .map(|i| {
                let t = from + Duration::from_nanos(interval.as_nanos() * i as u64);
                trace
                    .state_at(t)
                    .map(|s| model.current_ma(s))
                    .unwrap_or(0.0)
            })
            .collect()
    }

    #[test]
    fn materialization_is_bit_identical_to_per_sample_reads() {
        let (trace, model) = square_wave();
        for rate in [50_000, 7_919, 1_000] {
            let wf = Waveform::capture(&trace, &model, Instant::ZERO, Instant::from_ms(200));
            let dense = wf.materialize(rate);
            let want = sample_reference(rate, &trace, &model, Instant::ZERO, Instant::from_ms(200));
            assert_eq!(dense.samples_ma, want, "rate {rate}");
        }
    }

    #[test]
    fn window_before_first_transition_is_zero() {
        let mut m = Mcu::esp32(Instant::from_ms(50));
        m.stay(PowerState::RadioListen, Duration::from_ms(10));
        let model = *m.model();
        let trace = m.into_trace();
        let wf = Waveform::capture(&trace, &model, Instant::ZERO, Instant::from_ms(100));
        let dense = wf.materialize(50_000);
        let want = sample_reference(50_000, &trace, &model, Instant::ZERO, Instant::from_ms(100));
        assert_eq!(dense.samples_ma, want);
    }

    #[test]
    fn exact_stats_on_square_wave() {
        let (trace, model) = square_wave();
        let wf = Waveform::capture(&trace, &model, Instant::ZERO, Instant::from_ms(200));
        assert!((wf.peak_ma() - 95.0).abs() < 1e-9);
        assert!((wf.duty_cycle_above(1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn segment_memory_is_tiny_compared_to_dense() {
        let (trace, model) = square_wave();
        let wf = Waveform::capture(&trace, &model, Instant::ZERO, Instant::from_ms(200));
        // 3 states → ≤ 3 segments; dense holds 10 000 samples.
        assert!(wf.segment_count() <= 3);
        assert!(wf.dense_memory_bytes(50_000) >= 1_000 * wf.memory_bytes());
    }

    #[test]
    fn multimeter_sample_delegates_unchanged() {
        let (trace, model) = square_wave();
        let mm = Multimeter::keysight_34465a();
        let via_mm = mm.sample(&trace, &model, Instant::ZERO, Instant::from_ms(200));
        let via_wf = mm
            .capture(&trace, &model, Instant::ZERO, Instant::from_ms(200))
            .materialize(mm.sample_rate_hz);
        assert_eq!(via_mm.samples_ma, via_wf.samples_ma);
        assert_eq!(via_mm.sample_interval, via_wf.sample_interval);
    }

    #[test]
    fn empty_window() {
        let (trace, model) = square_wave();
        let wf = Waveform::capture(&trace, &model, Instant::from_ms(5), Instant::from_ms(5));
        assert_eq!(wf.peak_ma(), 0.0);
        assert_eq!(wf.duty_cycle_above(0.0), 0.0);
        assert!(wf.materialize(50_000).samples_ma.is_empty());
    }
}
