//! Receiver-side duty cycling.
//!
//! The paper's receiver is a phone or AP ("mains powered" in effect),
//! but real phones do not scan continuously either — the OS wakes the
//! scan path periodically. A duty-cycled scanner only catches beacons
//! that land inside its listen windows, which couples directly to the
//! repeat policy: `copies_for_scanner` answers "how many repeats does a
//! device need so a scanner with duty cycle d still hears it".

use crate::reliability::RepeatPolicy;
use wile_radio::time::Duration;

/// A periodic scan schedule: `window` of listening every `period`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanSchedule {
    /// Cycle length.
    pub(crate) period: Duration,
    /// Listening window at the start of each cycle.
    pub(crate) window: Duration,
}

impl ScanSchedule {
    /// Android-like background scanning: ~512 ms of dwell per channel
    /// visit, revisiting a given channel every ~8 s.
    pub fn phone_background() -> Self {
        ScanSchedule {
            period: Duration::from_ms(8_192),
            window: Duration::from_ms(512),
        }
    }

    /// The listening duty cycle in `[0, 1]`.
    pub fn duty_cycle(&self) -> f64 {
        (self.window.as_nanos() as f64 / self.period.as_nanos() as f64).min(1.0)
    }

    /// Probability a short beacon at a *random* phase is caught —
    /// essentially the duty cycle minus the beacon's own airtime edge.
    pub(crate) fn catch_probability(&self, airtime: Duration) -> f64 {
        let w = self.window.as_nanos() as f64;
        let a = airtime.as_nanos() as f64;
        ((w - a).max(0.0) / self.period.as_nanos() as f64).min(1.0)
    }

    /// The repeat count a device needs for `target` end-to-end delivery
    /// through this scanner, assuming per-copy RF delivery `p_rf` and a
    /// beacon airtime of `airtime`. `None` when unreachable within the
    /// 15-copy protocol limit.
    pub fn copies_for_scanner(&self, p_rf: f64, airtime: Duration, target: f64) -> Option<u8> {
        let p = p_rf * self.catch_probability(airtime);
        RepeatPolicy::copies_for(p, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wile_radio::time::Instant;

    /// The point-by-point specification `catch_probability` is checked
    /// against: whether a transmission spanning `[start, end]` is fully
    /// inside a listen window (phase-aligned to t = 0).
    fn catches(s: &ScanSchedule, start: Instant, end: Instant) -> bool {
        let p = s.period.as_nanos();
        let w = s.window.as_nanos();
        let st = start.as_nanos() % p;
        let e = st + end.since(start).as_nanos();
        e <= w
    }

    #[test]
    fn duty_cycle_math() {
        let s = ScanSchedule {
            period: Duration::from_ms(100),
            window: Duration::from_ms(25),
        };
        assert!((s.duty_cycle() - 0.25).abs() < 1e-12);
        let always_on = ScanSchedule {
            window: s.period,
            ..s
        };
        assert_eq!(always_on.duty_cycle(), 1.0);
    }

    #[test]
    fn phone_background_duty() {
        let d = ScanSchedule::phone_background().duty_cycle();
        assert!((d - 0.0625).abs() < 0.001, "{d}");
    }

    #[test]
    fn catches_depends_on_phase() {
        let s = ScanSchedule {
            period: Duration::from_ms(100),
            window: Duration::from_ms(10),
        };
        // Inside the first window.
        assert!(catches(&s, Instant::from_ms(2), Instant::from_ms(3)));
        // Outside.
        assert!(!catches(&s, Instant::from_ms(50), Instant::from_ms(51)));
        // Straddling the window edge: missed.
        assert!(!catches(&s, Instant::from_ms(9), Instant::from_ms(11)));
        // Next cycle's window.
        assert!(catches(&s, Instant::from_ms(102), Instant::from_ms(103)));
    }

    #[test]
    fn catch_probability_bounds() {
        let s = ScanSchedule {
            period: Duration::from_ms(100),
            window: Duration::from_ms(10),
        };
        let p = s.catch_probability(Duration::from_us(50));
        assert!(p < 0.1 && p > 0.09, "{p}");
        // A beacon longer than the window can never be fully caught.
        assert_eq!(s.catch_probability(Duration::from_ms(11)), 0.0);
        let always_on = ScanSchedule {
            window: s.period,
            ..s
        };
        assert_eq!(always_on.catch_probability(Duration::ZERO), 1.0);
    }

    #[test]
    fn copies_needed_grows_with_sparser_scanning() {
        let air = Duration::from_us(50);
        let dense = ScanSchedule {
            period: Duration::from_ms(100),
            window: Duration::from_ms(50),
        };
        let sparse = ScanSchedule {
            period: Duration::from_ms(100),
            window: Duration::from_ms(20),
        };
        let kd = dense.copies_for_scanner(1.0, air, 0.9).unwrap();
        let ks = sparse.copies_for_scanner(1.0, air, 0.9).unwrap();
        assert!(ks > kd, "{ks} vs {kd}");
        // Phone-background scanning (6.25 %) cannot reach 90 % within
        // 15 copies — the device must instead stretch its beacon train
        // across scan cycles (which RepeatPolicy spacing enables).
        assert_eq!(
            ScanSchedule::phone_background().copies_for_scanner(1.0, air, 0.9),
            None
        );
    }

    #[test]
    fn simulated_catches_match_probability() {
        // Fire beacons at uniformly random phases and compare the hit
        // rate against catch_probability.
        let s = ScanSchedule {
            period: Duration::from_ms(100),
            window: Duration::from_ms(30),
        };
        let air = Duration::from_us(500);
        let n = 20_000u64;
        let mut hits = 0;
        for i in 0..n {
            // Low-discrepancy phases over many periods.
            let start = Instant::from_nanos(i * 7_919_777);
            if catches(&s, start, start + air) {
                hits += 1;
            }
        }
        let rate = hits as f64 / n as f64;
        let want = s.catch_probability(air);
        assert!((rate - want).abs() < 0.02, "rate {rate} want {want}");
    }
}
