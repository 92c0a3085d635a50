//! Periodic transmission scheduling and the multi-device fleet study.
//!
//! §6, *Network of IoT devices*: "The possibility of concurrent
//! transmissions from multiple devices and the mitigation mechanism
//! need to be studied. We believe that if two devices happen to
//! transmit at the same time and they have the same transmission
//! period, their transmissions will automatically differ away from each
//! other due to the jitter of their clocks." [`run_fleet`] runs that
//! experiment: N devices, equal nominal periods, per-device crystal
//! drift — measuring collisions per round over time.

use crate::inject::Injector;
use crate::monitor::Gateway;
use crate::registry::DeviceIdentity;
use wile_radio::clock::DriftClock;
use wile_radio::medium::{Medium, RadioConfig, RadioId};
use wile_radio::time::{Duration, Instant};
use wile_radio::EventQueue;

/// A device's transmission schedule: nominal period through a drifting
/// clock.
#[derive(Debug)]
pub struct PeriodicSchedule {
    clock: DriftClock,
    period: Duration,
    next_at: Instant,
}

impl PeriodicSchedule {
    /// Schedule with the given nominal period; first firing at `start`.
    pub(crate) fn new(start: Instant, period: Duration, clock: DriftClock) -> Self {
        PeriodicSchedule {
            clock,
            period,
            next_at: start,
        }
    }

    /// When the next transmission fires.
    pub(crate) fn next_at(&self) -> Instant {
        self.next_at
    }

    /// Advance to the following transmission and return its time.
    pub(crate) fn advance(&mut self) -> Instant {
        let fired = self.next_at;
        self.next_at = self.clock.wake_after(fired, self.period);
        fired
    }
}

/// Result of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Per-round delivery counts: `delivered[r]` = messages the gateway
    /// received from round `r` (out of `devices`).
    pub delivered_per_round: Vec<usize>,
    /// Number of devices.
    pub(crate) devices: usize,
    /// Total messages injected.
    pub injected: u64,
    /// Total messages delivered.
    pub(crate) delivered: u64,
}

impl FleetOutcome {
    /// Overall delivery ratio.
    pub fn delivery_ratio(&self) -> f64 {
        if self.injected == 0 {
            return 1.0;
        }
        self.delivered as f64 / self.injected as f64
    }

    /// Delivery ratio of the first `k` rounds vs the last `k` — the §6
    /// claim predicts the tail beats the head when clocks drift.
    pub fn head_tail_ratio(&self, k: usize) -> (f64, f64) {
        let n = self.delivered_per_round.len();
        let k = k.min(n / 2).max(1);
        let head: usize = self.delivered_per_round[..k].iter().sum();
        let tail: usize = self.delivered_per_round[n - k..].iter().sum();
        let denom = (k * self.devices) as f64;
        (head as f64 / denom, tail as f64 / denom)
    }
}

/// Configuration of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of devices, placed on a circle around the gateway.
    pub devices: usize,
    /// Circle radius, metres.
    pub radius_m: f64,
    /// Nominal transmission period (every device the same — the
    /// §6 worst case).
    pub period: Duration,
    /// Rounds to simulate.
    pub rounds: usize,
    /// Crystal quality: `None` = pathological zero-drift clocks
    /// (collisions persist forever), `Some(seed)` = IoT-grade ±20 ppm.
    pub drift: Option<u64>,
    /// All devices start transmitting at exactly the same instant
    /// (§6's "happen to transmit at the same time").
    pub synchronized_start: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            devices: 8,
            radius_m: 3.0,
            period: Duration::from_secs(60),
            rounds: 30,
            drift: Some(1),
            synchronized_start: true,
        }
    }
}

/// Run the §6 fleet experiment.
pub fn run_fleet(cfg: &FleetConfig) -> FleetOutcome {
    let mut medium = Medium::new(Default::default(), 11);
    let gateway_radio = medium.attach(RadioConfig::default());
    let mut radios: Vec<RadioId> = Vec::new();
    let mut injectors: Vec<Injector> = Vec::new();
    let mut schedules: Vec<PeriodicSchedule> = Vec::new();

    for i in 0..cfg.devices {
        let angle = i as f64 / cfg.devices as f64 * std::f64::consts::TAU;
        let pos = (cfg.radius_m * angle.cos(), cfg.radius_m * angle.sin());
        radios.push(medium.attach(RadioConfig {
            position_m: pos,
            ..Default::default()
        }));
        injectors.push(Injector::new(
            DeviceIdentity::new(i as u32 + 1),
            Instant::ZERO,
        ));
        let clock = match cfg.drift {
            Some(seed) => DriftClock::iot_grade(seed.wrapping_add(i as u64 * 7919)),
            None => DriftClock::ideal(),
        };
        let start = if cfg.synchronized_start {
            Instant::from_secs(1)
        } else {
            Instant::from_secs(1) + Duration::from_ms(137 * i as u64)
        };
        schedules.push(PeriodicSchedule::new(start, cfg.period, clock));
    }

    // Event-driven: (device index) fires at its schedule times.
    let mut queue = EventQueue::new();
    for (i, s) in schedules.iter().enumerate() {
        queue.schedule(s.next_at(), i);
    }
    let mut injected = 0u64;
    let mut rounds_done = vec![0usize; cfg.devices];
    while let Some((_, i)) = queue.pop() {
        if rounds_done[i] >= cfg.rounds {
            continue;
        }
        let at = schedules[i].advance();
        rounds_done[i] += 1;
        injectors[i].sleep_until(at);
        let payload = format!("d{}r{}", i + 1, rounds_done[i] - 1);
        injectors[i].inject(&mut medium, radios[i], payload.as_bytes());
        injected += 1;
        if rounds_done[i] < cfg.rounds {
            queue.schedule(schedules[i].next_at(), i);
        }
    }

    // Collect at the gateway and attribute deliveries to rounds via the
    // sequence number (seq r == round r for every device).
    let mut gw = Gateway::new();
    let horizon = Instant::from_secs(1)
        + Duration::from_nanos(cfg.period.as_nanos().saturating_mul(cfg.rounds as u64 + 2))
        + Duration::from_secs(5);
    let mut delivered_per_round = vec![0usize; cfg.rounds];
    let mut delivered = 0u64;
    for r in gw.poll(&mut medium, gateway_radio, horizon) {
        let round = r.seq as usize;
        if round < cfg.rounds {
            delivered_per_round[round] += 1;
        }
        delivered += 1;
    }
    FleetOutcome {
        delivered_per_round,
        devices: cfg.devices,
        injected,
        delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_fires_at_nominal_period_with_ideal_clock() {
        let mut s =
            PeriodicSchedule::new(Instant::ZERO, Duration::from_secs(10), DriftClock::ideal());
        assert_eq!(s.advance(), Instant::ZERO);
        assert_eq!(s.advance(), Instant::from_secs(10));
        assert_eq!(s.next_at(), Instant::from_secs(20));
    }

    #[test]
    fn zero_drift_synchronized_fleet_collides_forever() {
        // The §6 pathological case: identical ideal clocks, same start.
        let out = run_fleet(&FleetConfig {
            devices: 4,
            rounds: 10,
            drift: None,
            period: Duration::from_secs(10),
            ..Default::default()
        });
        // Everything collides: nothing (or nearly nothing) arrives.
        assert!(
            out.delivery_ratio() < 0.05,
            "ratio {}",
            out.delivery_ratio()
        );
    }

    #[test]
    fn clock_jitter_decorrelates_equal_periods() {
        // The §6 claim: real crystals pull the fleet apart.
        let out = run_fleet(&FleetConfig {
            devices: 4,
            rounds: 30,
            drift: Some(3),
            period: Duration::from_secs(60),
            ..Default::default()
        });
        let (head, tail) = out.head_tail_ratio(5);
        assert!(tail > 0.9, "tail {tail}");
        assert!(tail >= head, "head {head} tail {tail}");
        assert!(
            out.delivery_ratio() > 0.6,
            "overall {}",
            out.delivery_ratio()
        );
    }

    #[test]
    fn staggered_start_avoids_collisions_entirely() {
        let out = run_fleet(&FleetConfig {
            devices: 6,
            rounds: 5,
            drift: Some(1),
            synchronized_start: false,
            period: Duration::from_secs(30),
            ..Default::default()
        });
        assert_eq!(out.delivery_ratio(), 1.0);
    }

    #[test]
    fn injected_count_is_devices_times_rounds() {
        let cfg = FleetConfig {
            devices: 3,
            rounds: 4,
            ..Default::default()
        };
        let out = run_fleet(&cfg);
        assert_eq!(out.injected, 12);
        assert_eq!(out.delivered_per_round.len(), 4);
    }
}
