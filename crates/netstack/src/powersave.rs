//! 802.11 power-save client schedule: which beacons the client wakes
//! for.
//!
//! §3.2 of the paper describes the mechanism; the WiFi-PS scenario
//! (§5.3) configures it aggressively: "the WiFi chip wakes up only for
//! every third beacon frame".

use wile_radio::time::{Duration, Instant};

/// Client-side power-save schedule.
#[derive(Debug, Clone, Copy)]
pub struct PsSchedule {
    /// AP beacon interval.
    pub(crate) beacon_interval: Duration,
    /// Wake for every `listen_every`-th beacon (the paper uses 3).
    pub(crate) listen_every: u32,
}

impl PsSchedule {
    /// The paper's WiFi-PS configuration: 102.4 ms beacons, every third.
    pub fn paper_default() -> Self {
        PsSchedule {
            beacon_interval: Duration::from_us(102_400),
            listen_every: 3,
        }
    }

    /// The time of the `n`-th beacon the client will wake for, starting
    /// from `t0` (the first beacon after association).
    pub fn nth_wake(&self, t0: Instant, n: u64) -> Instant {
        t0 + Duration::from_nanos(self.beacon_interval.as_nanos() * self.listen_every as u64 * n)
    }

    /// How many wakes happen in an interval of length `d`.
    pub fn wakes_in(&self, d: Duration) -> u64 {
        d.as_nanos() / (self.beacon_interval.as_nanos() * self.listen_every as u64)
    }

    /// Fraction of beacons skipped.
    pub fn skip_fraction(&self) -> f64 {
        1.0 - 1.0 / self.listen_every as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schedule_wakes_every_307ms() {
        let s = PsSchedule::paper_default();
        let t0 = Instant::ZERO;
        assert_eq!(s.nth_wake(t0, 1).since(t0), Duration::from_us(307_200));
        assert!((s.skip_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn wakes_per_ten_minutes() {
        let s = PsSchedule::paper_default();
        // 600 s / 0.3072 s ≈ 1953 wakes between two sensor transmissions.
        let w = s.wakes_in(Duration::from_secs(600));
        assert_eq!(w, 1953);
    }

    #[test]
    fn listen_every_one_means_no_skipping() {
        let s = PsSchedule {
            beacon_interval: Duration::from_ms(100),
            listen_every: 1,
        };
        assert_eq!(s.skip_fraction(), 0.0);
        assert_eq!(s.nth_wake(Instant::ZERO, 2), Instant::from_ms(200));
    }
}
