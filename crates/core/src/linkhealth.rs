//! Gateway-side per-device link health.
//!
//! The Wi-LE uplink is one-way: a device learns nothing from the air,
//! so everything the system knows about a link lives at the gateway.
//! This module turns the stream of (device, seq, arrival-time)
//! observations the monitor already produces into:
//!
//! * a **loss estimate** from sequence gaps (an EWMA, so it recovers
//!   after a burst instead of averaging it away);
//! * **replay / out-of-order tolerance** via a sliding window bitmap
//!   anchored at the highest sequence seen — a late copy inside the
//!   window fills its hole, anything older is rejected as a replay;
//! * a **status machine** with hysteresis (Healthy ⇄ Degraded ⇄
//!   Offline): a link must drop *below* `recover_below` to leave
//!   Degraded, not merely below the `degraded_above` trip point, so
//!   borderline channels don't flap;
//! * **stale eviction**: devices silent past `evict_after` are dropped
//!   from the table (and reported, so operators notice).
//!
//! The loss estimate is what the gateway reports back through the
//! two-way receive window to drive the device's
//! [`crate::reliability::AdaptiveRepeat`].

use std::collections::HashMap;
use wile_radio::time::{Duration, Instant};

/// Width of the reorder/replay bitmap (bits of [`u128`]).
pub(crate) const SEQ_WINDOW: u16 = 128;

/// Tuning for [`LinkHealth`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkHealthConfig {
    /// EWMA weight per observation (higher = faster reaction).
    pub(crate) alpha: f64,
    /// Loss estimate above which a link trips to Degraded.
    pub(crate) degraded_above: f64,
    /// Loss estimate a Degraded link must fall below to be Healthy
    /// again (hysteresis; must be < `degraded_above`).
    pub(crate) recover_below: f64,
    /// Silence longer than this marks the link Offline.
    pub(crate) offline_after: Duration,
    /// Silence longer than this evicts the device entirely.
    pub(crate) evict_after: Duration,
    /// Observations before the estimate is trusted for status changes.
    pub(crate) min_samples: u32,
}

impl Default for LinkHealthConfig {
    fn default() -> Self {
        LinkHealthConfig {
            alpha: 0.1,
            degraded_above: 0.3,
            recover_below: 0.1,
            offline_after: Duration::from_secs(300),
            evict_after: Duration::from_secs(3600),
            min_samples: 5,
        }
    }
}

/// Health verdict for one device's link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkStatus {
    /// Receiving at acceptable loss.
    Healthy,
    /// Receiving, but the loss estimate tripped the threshold.
    Degraded,
    /// Silent past the offline deadline.
    Offline,
}

/// What one observation turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// First sighting of this (device, seq): counts toward delivery.
    New,
    /// Seen before (repeat copy or replay inside the window).
    Duplicate,
    /// Older than the reorder window: rejected as a stale replay.
    Stale,
}

#[derive(Debug, Clone, PartialEq)]
struct DeviceLink {
    /// Highest sequence observed.
    max_seq: u16,
    /// Bit `i` set ⇔ sequence `max_seq − i` was received.
    bitmap: u128,
    last_seen: Instant,
    loss_ewma: f64,
    samples: u32,
    received: u64,
    /// Sequence numbers the link has advanced over (received + gaps).
    expected: u64,
    degraded_latched: bool,
}

impl DeviceLink {
    fn new(seq: u16, at: Instant) -> Self {
        DeviceLink {
            max_seq: seq,
            bitmap: 1,
            last_seen: at,
            loss_ewma: 0.0,
            samples: 1,
            received: 1,
            expected: 1,
            degraded_latched: false,
        }
    }

    fn ewma_loss(&mut self, alpha: f64) {
        self.loss_ewma += alpha * (1.0 - self.loss_ewma);
        self.samples += 1;
    }

    fn ewma_success(&mut self, alpha: f64) {
        self.loss_ewma *= 1.0 - alpha;
        self.samples += 1;
    }
}

/// The per-device link-health table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkHealth {
    cfg: LinkHealthConfig,
    links: HashMap<u32, DeviceLink>,
    /// In-window holes filled by late (reordered) arrivals, table-wide.
    late_fills: u64,
}

impl LinkHealth {
    /// A table with the given tuning.
    pub fn new(cfg: LinkHealthConfig) -> Self {
        assert!((0.0..=1.0).contains(&cfg.alpha) && cfg.alpha > 0.0);
        assert!(
            cfg.recover_below < cfg.degraded_above,
            "hysteresis band inverted"
        );
        assert!(cfg.offline_after <= cfg.evict_after);
        LinkHealth {
            cfg,
            links: HashMap::new(),
            late_fills: 0,
        }
    }

    /// How many observations were reordered arrivals that filled an
    /// in-window hole (loss charged, then credited back).
    pub(crate) fn late_fills(&self) -> u64 {
        self.late_fills
    }

    /// The table's tuning (used to rebuild an empty table with the same
    /// policy, e.g. on a cold gateway restart).
    pub(crate) fn config(&self) -> LinkHealthConfig {
        self.cfg
    }

    /// Feed one received message header. `at` must be non-decreasing
    /// per device (arrival order at the gateway).
    pub fn observe(&mut self, device: u32, seq: u16, at: Instant) -> Observation {
        let alpha = self.cfg.alpha;
        let Some(link) = self.links.get_mut(&device) else {
            self.links.insert(device, DeviceLink::new(seq, at));
            return Observation::New;
        };
        link.last_seen = at;
        let ahead = seq.wrapping_sub(link.max_seq);
        if ahead == 0 {
            return Observation::Duplicate;
        }
        if ahead < 0x8000 {
            // Advance: `ahead − 1` sequences were skipped (for now —
            // late arrivals inside the window will claim them back).
            for _ in 1..ahead.min(SEQ_WINDOW) {
                link.ewma_loss(alpha);
            }
            link.ewma_success(alpha);
            link.expected += ahead as u64;
            link.received += 1;
            link.max_seq = seq;
            link.bitmap = if ahead >= SEQ_WINDOW {
                1
            } else {
                (link.bitmap << ahead) | 1
            };
            return Observation::New;
        }
        // Behind the anchor: reordered copy or replay.
        let behind = link.max_seq.wrapping_sub(seq);
        if behind >= SEQ_WINDOW {
            return Observation::Stale;
        }
        let bit = 1u128 << behind;
        if link.bitmap & bit != 0 {
            return Observation::Duplicate;
        }
        // A hole filled late: the gap we charged as loss was really
        // reordering — credit a success to walk the estimate back.
        link.bitmap |= bit;
        link.received += 1;
        link.ewma_success(alpha);
        self.late_fills += 1;
        Observation::New
    }

    /// Current loss estimate for a device (None if unknown).
    pub fn loss_estimate(&self, device: u32) -> Option<f64> {
        self.links.get(&device).map(|l| l.loss_ewma)
    }

    /// Lifetime (received, expected) counters for a device.
    pub(crate) fn counters(&self, device: u32) -> Option<(u64, u64)> {
        self.links.get(&device).map(|l| (l.received, l.expected))
    }

    /// Status of a device's link as of `now`, applying the hysteresis
    /// band. Unknown devices are reported Offline.
    pub fn status(&mut self, device: u32, now: Instant) -> LinkStatus {
        let cfg = self.cfg;
        let Some(link) = self.links.get_mut(&device) else {
            return LinkStatus::Offline;
        };
        if now.since(link.last_seen) > cfg.offline_after {
            return LinkStatus::Offline;
        }
        if link.samples < cfg.min_samples {
            return LinkStatus::Healthy;
        }
        if link.degraded_latched {
            if link.loss_ewma < cfg.recover_below {
                link.degraded_latched = false;
            }
        } else if link.loss_ewma > cfg.degraded_above {
            link.degraded_latched = true;
        }
        if link.degraded_latched {
            LinkStatus::Degraded
        } else {
            LinkStatus::Healthy
        }
    }

    /// Evict devices silent past `evict_after`; returns their ids
    /// (sorted, for deterministic reporting).
    pub fn evict_stale(&mut self, now: Instant) -> Vec<u32> {
        let deadline = self.cfg.evict_after;
        let mut gone: Vec<u32> = self
            .links
            .iter()
            .filter(|(_, l)| now.since(l.last_seen) > deadline)
            .map(|(&id, _)| id)
            .collect();
        gone.sort_unstable();
        for id in &gone {
            self.links.remove(id);
        }
        gone
    }

    /// All tracked device ids (sorted).
    pub(crate) fn devices(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.links.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(s: u64) -> Instant {
        Instant::from_secs(s)
    }

    #[test]
    fn clean_stream_stays_healthy() {
        let mut lh = LinkHealth::new(Default::default());
        for i in 0..50u16 {
            assert_eq!(lh.observe(1, i, at(i as u64)), Observation::New);
        }
        assert!(lh.loss_estimate(1).unwrap() < 0.01);
        assert_eq!(lh.status(1, at(50)), LinkStatus::Healthy);
        assert_eq!(lh.counters(1), Some((50, 50)));
    }

    #[test]
    fn gaps_raise_loss_and_trip_degraded_with_hysteresis() {
        let mut lh = LinkHealth::new(Default::default());
        let mut seq = 0u16;
        let mut t = 0u64;
        fn step(lh: &mut LinkHealth, seq: &mut u16, t: &mut u64, stride: u16) {
            *seq = seq.wrapping_add(stride);
            *t += 1;
            lh.observe(1, *seq, at(*t));
        }
        step(&mut lh, &mut seq, &mut t, 1);
        // Every other message lost.
        for _ in 0..30 {
            step(&mut lh, &mut seq, &mut t, 2);
        }
        assert!(lh.loss_estimate(1).unwrap() > 0.3);
        assert_eq!(lh.status(1, at(t)), LinkStatus::Degraded);
        // Drop just below the trip point: still Degraded (latched).
        while lh.loss_estimate(1).unwrap() >= 0.15 {
            step(&mut lh, &mut seq, &mut t, 1);
        }
        assert_eq!(lh.status(1, at(t)), LinkStatus::Degraded);
        // Below the recovery threshold: Healthy again.
        while lh.loss_estimate(1).unwrap() >= 0.05 {
            step(&mut lh, &mut seq, &mut t, 1);
        }
        assert_eq!(lh.status(1, at(t)), LinkStatus::Healthy);
    }

    #[test]
    fn duplicates_and_replays() {
        let mut lh = LinkHealth::new(Default::default());
        for i in 0..10u16 {
            lh.observe(1, i, at(i as u64));
        }
        // Repeat copy of the newest and an old in-window seq.
        assert_eq!(lh.observe(1, 9, at(11)), Observation::Duplicate);
        assert_eq!(lh.observe(1, 3, at(12)), Observation::Duplicate);
        // Far-past replay (outside the window).
        for i in 10..200u16 {
            lh.observe(1, i, at(20 + i as u64));
        }
        assert_eq!(lh.observe(1, 2, at(500)), Observation::Stale);
    }

    #[test]
    fn out_of_order_inside_window_fills_hole() {
        let mut lh = LinkHealth::new(Default::default());
        lh.observe(1, 0, at(0));
        lh.observe(1, 1, at(1));
        // 2 skipped, 3 arrives…
        lh.observe(1, 3, at(2));
        let with_gap = lh.loss_estimate(1).unwrap();
        assert!(with_gap > 0.0);
        // …then 2 shows up late: New, and the estimate walks back.
        assert_eq!(lh.observe(1, 2, at(3)), Observation::New);
        assert!(lh.loss_estimate(1).unwrap() < with_gap);
        // A second copy of the late one is a Duplicate.
        assert_eq!(lh.observe(1, 2, at(4)), Observation::Duplicate);
        assert_eq!(lh.counters(1), Some((4, 4)));
    }

    #[test]
    fn sequence_wraparound_is_an_advance() {
        let mut lh = LinkHealth::new(Default::default());
        lh.observe(1, 0xFFFE, at(0));
        assert_eq!(lh.observe(1, 0xFFFF, at(1)), Observation::New);
        assert_eq!(lh.observe(1, 0x0000, at(2)), Observation::New);
        assert_eq!(lh.observe(1, 0x0001, at(3)), Observation::New);
        assert!(lh.loss_estimate(1).unwrap() < 0.01);
        assert_eq!(lh.counters(1), Some((4, 4)));
    }

    #[test]
    fn silence_goes_offline_then_evicts() {
        let cfg = LinkHealthConfig {
            offline_after: Duration::from_secs(100),
            evict_after: Duration::from_secs(1000),
            ..Default::default()
        };
        let mut lh = LinkHealth::new(cfg);
        lh.observe(7, 0, at(0));
        assert_eq!(lh.status(7, at(50)), LinkStatus::Healthy);
        assert_eq!(lh.status(7, at(200)), LinkStatus::Offline);
        assert_eq!(lh.evict_stale(at(500)), Vec::<u32>::new());
        assert_eq!(lh.evict_stale(at(2000)), vec![7]);
        assert_eq!(lh.devices(), Vec::<u32>::new());
        assert_eq!(lh.status(7, at(2000)), LinkStatus::Offline);
    }

    #[test]
    fn huge_jump_resets_window_but_counts_gap() {
        let mut lh = LinkHealth::new(Default::default());
        lh.observe(1, 0, at(0));
        // Jump past the whole bitmap width.
        assert_eq!(lh.observe(1, 500, at(1)), Observation::New);
        assert_eq!(lh.counters(1), Some((2, 501)));
        // Old territory is now stale.
        assert_eq!(lh.observe(1, 100, at(2)), Observation::Stale);
        // The fresh anchor still dedups.
        assert_eq!(lh.observe(1, 500, at(3)), Observation::Duplicate);
    }

    #[test]
    fn independent_devices() {
        let mut lh = LinkHealth::new(Default::default());
        for i in 0..20u16 {
            lh.observe(1, i, at(i as u64));
            lh.observe(2, i * 3, at(i as u64));
        }
        assert!(lh.loss_estimate(1).unwrap() < 0.01);
        assert!(lh.loss_estimate(2).unwrap() > 0.3);
        assert_eq!(lh.devices(), vec![1, 2]);
    }
}
