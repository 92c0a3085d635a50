//! Application-level reliability for a one-way, unacknowledged link.
//!
//! Wi-LE beacons are never acknowledged ("one-way communication", §6),
//! so the only reliability lever a device has is *repetition*: transmit
//! the same message (same sequence number) k times and let the
//! gateway's (device, seq) dedup collapse the copies. This module
//! provides the repeat policy, the math for choosing k, and the
//! device-side driver.
//!
//! Under independent losses with per-copy delivery probability p, the
//! message-level delivery probability is `1 − (1−p)^k` — the classic
//! diversity argument. The energy cost is linear in k but each copy is
//! only ~85 µJ, so even k = 3 stays two orders below one WiFi-PS packet.

use crate::inject::{InjectReport, Injector};
use crate::message::Message;
use wile_radio::medium::{Medium, RadioId};
use wile_radio::time::Duration;

/// The most copies any policy will send for one message.
///
/// Beyond 15 copies the arithmetic stops paying: each copy costs a full
/// wake cycle (~85 µJ at the paper's operating point), so 15 copies is
/// already ~1.3 mJ — the regime where a WiFi power-save association
/// becomes competitive and repetition is the wrong tool. It is also the
/// point where, if 15 copies can't reach the target, the per-copy loss
/// is so high that no realistic k will (see
/// [`RepeatPolicy::copies_for`]'s `None` case).
pub const MAX_COPIES: u8 = 15;

/// How to repeat a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepeatPolicy {
    /// Total copies to transmit (≥ 1).
    pub copies: u8,
    /// Gap between copies. Spacing decorrelates burst interference;
    /// a few milliseconds is enough to escape one colliding beacon.
    pub spacing: Duration,
}

impl RepeatPolicy {
    /// No repetition (the paper's baseline behaviour).
    pub const SINGLE: RepeatPolicy = RepeatPolicy {
        copies: 1,
        spacing: Duration::ZERO,
    };

    /// The smallest copy count achieving `target` delivery probability
    /// at per-copy probability `p`. Returns `None` if the target is
    /// unreachable within [`MAX_COPIES`] copies — the caller should
    /// treat that as "repetition cannot save this link" rather than
    /// ramping k further (see the [`MAX_COPIES`] docs for why the cap
    /// sits where it does).
    pub fn copies_for(p: f64, target: f64) -> Option<u8> {
        assert!((0.0..1.0).contains(&target));
        if p <= 0.0 {
            return None;
        }
        (1..=MAX_COPIES).find(|&k| 1.0 - (1.0 - p).powi(k as i32) >= target)
    }
}

impl Default for RepeatPolicy {
    fn default() -> Self {
        RepeatPolicy {
            copies: 3,
            spacing: Duration::from_ms(5),
        }
    }
}

/// Inject `payload` according to `policy`: one wake cycle, k identical
/// beacons (same message sequence number) separated by `spacing`, one
/// sleep. Returns the per-copy reports.
pub fn inject_with_repeats(
    injector: &mut Injector,
    medium: &mut Medium,
    radio: RadioId,
    payload: &[u8],
    policy: RepeatPolicy,
) -> Vec<InjectReport> {
    assert!(policy.copies >= 1);
    let mut reports = Vec::with_capacity(policy.copies as usize);
    // First copy pays the wake cycle…
    let seq = {
        let r = injector.inject(medium, radio, payload);
        let seq = r.seq;
        reports.push(r);
        seq
    };
    // …repeats re-wake from the just-entered sleep after `spacing`
    // (light wake; the Injector models it as a fresh cycle, which is
    // conservative on energy).
    for _ in 1..policy.copies {
        let at = injector.now() + policy.spacing;
        injector.sleep_until(at);
        let msg = Message::new(injector.identity().device_id, seq, payload);
        reports.push(injector.inject_message(medium, radio, &msg));
    }
    reports
}

/// Hard energy ceiling for adaptation.
///
/// Adaptive repetition must never turn a Wi-LE device into a WiFi-class
/// consumer: whatever the channel does, the per-message energy stays
/// under `per_message_uj_ceiling`. The budget converts that ceiling
/// into a copy-count clamp using the measured per-copy cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBudget {
    /// Most µJ one message (all its copies) may cost.
    pub per_message_uj_ceiling: f64,
    /// Measured cost of one copy (full wake → tx → sleep cycle), µJ.
    pub per_copy_uj: f64,
}

impl EnergyBudget {
    /// The largest copy count the ceiling permits (at least 1 — the
    /// message itself is always sent — and never above [`MAX_COPIES`]).
    pub fn max_copies(&self) -> u8 {
        assert!(self.per_copy_uj > 0.0, "per-copy cost must be positive");
        let k = (self.per_message_uj_ceiling / self.per_copy_uj).floor();
        (k.max(1.0) as u64).clamp(1, MAX_COPIES as u64) as u8
    }

    /// Energy spent on a message sent with `copies` copies, µJ.
    pub(crate) fn message_cost_uj(&self, copies: u8) -> f64 {
        copies as f64 * self.per_copy_uj
    }
}

/// Tuning for [`AdaptiveRepeat`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Message-level delivery probability to aim for when feedback is
    /// available.
    pub target_delivery: f64,
    /// Policy used on a clean channel (also the floor adaptation
    /// relaxes back to).
    pub base: RepeatPolicy,
    /// The energy clamp — adaptation can never exceed it.
    pub budget: EnergyBudget,
    /// Additive step the transmit period is stretched by per backoff
    /// escalation (relieves a congested or jammed channel).
    pub backoff_step: Duration,
    /// Upper bound on the total period stretch.
    pub max_backoff: Duration,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            target_delivery: 0.9,
            base: RepeatPolicy::default(),
            budget: EnergyBudget {
                // ~10 copies at the paper's ~85 µJ/copy operating point.
                per_message_uj_ceiling: 850.0,
                per_copy_uj: 85.0,
            },
            backoff_step: Duration::from_secs(5),
            max_backoff: Duration::from_secs(60),
        }
    }
}

/// Device-side adaptive repetition for the one-way link.
///
/// Two operating modes, matching what the link actually offers:
///
/// * **Feedback-driven** — when the device opens `twoway` receive
///   windows and the gateway reports its loss estimate back,
///   [`AdaptiveRepeat::record_feedback`] solves for the smallest k
///   meeting the delivery target at that loss (via
///   [`RepeatPolicy::copies_for`]) and clamps it to the energy budget.
/// * **Blind** — with no return path the only observable is the
///   device's own carrier sense. [`AdaptiveRepeat::observe_air_busy`]
///   ramps k up one copy per busy observation and decays one copy per
///   quiet one, so the policy tracks interference without ever knowing
///   the delivery rate.
///
/// Both modes also stretch the transmit period additively (bounded by
/// `max_backoff`) while the channel looks bad, and relax it once it
/// recovers — trading latency for energy exactly when repetition alone
/// stops helping.
#[derive(Debug, Clone)]
pub struct AdaptiveRepeat {
    cfg: AdaptiveConfig,
    copies: u8,
    backoff: Duration,
}

impl AdaptiveRepeat {
    /// Start at the configured base policy (clamped to the budget).
    pub fn new(cfg: AdaptiveConfig) -> Self {
        assert!((0.0..1.0).contains(&cfg.target_delivery));
        assert!(cfg.base.copies >= 1);
        let copies = cfg.base.copies.min(cfg.budget.max_copies());
        AdaptiveRepeat {
            cfg,
            copies,
            backoff: Duration::ZERO,
        }
    }

    /// The policy to use for the next message.
    pub fn policy(&self) -> RepeatPolicy {
        RepeatPolicy {
            copies: self.copies,
            spacing: self.cfg.base.spacing,
        }
    }

    /// Current additive stretch to apply to the nominal period.
    pub fn period_backoff(&self) -> Duration {
        self.backoff
    }

    /// Energy the next message will cost under the current policy, µJ.
    /// Guaranteed ≤ the configured ceiling.
    pub fn energy_per_message_uj(&self) -> f64 {
        self.cfg.budget.message_cost_uj(self.copies)
    }

    /// Feedback path: the gateway reported `message_loss` — the
    /// fraction of this device's *messages* it failed to deliver, in
    /// `[0,1]`. That estimate already includes whatever diversity the
    /// current k bought (the gateway dedups copies before it ever sees
    /// a loss), so invert `L_msg = l^k` under the independence
    /// assumption to recover the per-copy loss `l`, then re-solve for
    /// the smallest k meeting the target. Correlated (bursty) losses
    /// inflate the recovered `l`, which errs toward more copies —
    /// exactly the safe direction.
    pub fn record_feedback(&mut self, message_loss: f64) {
        assert!((0.0..=1.0).contains(&message_loss));
        let per_copy_loss = message_loss.powf(1.0 / self.copies as f64);
        let p = 1.0 - per_copy_loss;
        let want = RepeatPolicy::copies_for(p, self.cfg.target_delivery)
            // Target unreachable: spend the whole budget, it is the
            // best repetition can do.
            .unwrap_or(MAX_COPIES);
        self.copies = want
            .max(self.cfg.base.copies)
            .min(self.cfg.budget.max_copies());
        if message_loss > 0.5 {
            self.escalate_backoff();
        } else if message_loss < 0.1 {
            self.relax_backoff();
        }
    }

    /// Blind path: one carrier-sense observation taken around a
    /// transmit opportunity. Ramp on busy, decay on quiet.
    pub fn observe_air_busy(&mut self, busy: bool) {
        if busy {
            self.copies = (self.copies + 1).min(self.cfg.budget.max_copies());
            self.escalate_backoff();
        } else {
            self.copies = self.copies.saturating_sub(1).max(self.cfg.base.copies);
            self.relax_backoff();
        }
    }

    fn escalate_backoff(&mut self) {
        self.backoff = (self.backoff + self.cfg.backoff_step).min(self.cfg.max_backoff);
    }

    fn relax_backoff(&mut self) {
        self.backoff = self.backoff.saturating_sub(self.cfg.backoff_step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use wile_radio::time::Instant;
    use wile_radio::{Medium, RadioConfig};

    #[test]
    fn copies_for_targets() {
        assert_eq!(RepeatPolicy::copies_for(0.9, 0.99), Some(2));
        assert_eq!(RepeatPolicy::copies_for(0.5, 0.99), Some(7));
        assert_eq!(RepeatPolicy::copies_for(0.99, 0.9), Some(1));
        assert_eq!(RepeatPolicy::copies_for(0.0, 0.9), None);
        // 15 copies of p=0.01 only reach ~14 %.
        assert_eq!(RepeatPolicy::copies_for(0.01, 0.9), None);
    }

    #[test]
    fn repeats_share_one_sequence_number() {
        let mut medium = Medium::new(Default::default(), 44);
        let s = medium.attach(RadioConfig::default());
        let p = medium.attach(RadioConfig {
            position_m: (2.0, 0.0),
            ..Default::default()
        });
        let mut inj = Injector::new(DeviceIdentity::new(1), Instant::ZERO);
        let reports = inject_with_repeats(
            &mut inj,
            &mut medium,
            s,
            b"important",
            RepeatPolicy {
                copies: 3,
                spacing: Duration::from_ms(5),
            },
        );
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(|r| r.seq == reports[0].seq));
        // Gateway collapses them to exactly one message.
        let mut gw = Gateway::new();
        let got = gw.poll(&mut medium, p, Instant::from_secs(5));
        assert_eq!(got.len(), 1);
        assert_eq!(gw.stats().duplicates, 2);
        assert_eq!(got[0].payload, b"important");
    }

    #[test]
    fn repeats_improve_delivery_at_marginal_range() {
        // Place the receiver at the rate's PER waterfall and compare
        // single-shot vs 5 repeats over many messages.
        use wile_dot11::phy::PhyRate;
        let model = wile_radio::channel::ChannelModel::default();
        let d = model.range_for_snr_m(0.0, PhyRate::WILE_PAPER.min_snr_db());
        let run = |copies: u8| {
            let mut medium = Medium::new(model, 606);
            let s = medium.attach(RadioConfig::default());
            let p = medium.attach(RadioConfig {
                position_m: (d, 0.0),
                sensitivity_dbm: -110.0,
                ..Default::default()
            });
            let mut inj = Injector::new(DeviceIdentity::new(1), Instant::ZERO);
            let mut gw = Gateway::new();
            let n = 40;
            for i in 0..n {
                inj.sleep_until(Instant::from_secs(2 + i as u64 * 2));
                inject_with_repeats(
                    &mut inj,
                    &mut medium,
                    s,
                    format!("m{i}").as_bytes(),
                    RepeatPolicy {
                        copies,
                        spacing: Duration::from_ms(4),
                    },
                );
            }
            let got = gw.poll(&mut medium, p, inj.now() + Duration::from_secs(5));
            got.len() as f64 / n as f64
        };
        let single = run(1);
        let repeated = run(5);
        assert!(single > 0.1 && single < 0.9, "single {single}");
        assert!(repeated > single, "repeated {repeated} vs single {single}");
        assert!(repeated > 0.85, "repeated {repeated}");
    }

    #[test]
    fn copies_for_none_is_the_max_copies_cap() {
        // The documented None case: even MAX_COPIES copies of p=0.01
        // reach only ~14 %, so any higher target is unreachable.
        assert_eq!(RepeatPolicy::copies_for(0.01, 0.139), Some(MAX_COPIES));
        assert_eq!(RepeatPolicy::copies_for(0.01, 0.14), None);
    }

    #[test]
    fn budget_clamps_copies() {
        let b = EnergyBudget {
            per_message_uj_ceiling: 500.0,
            per_copy_uj: 85.0,
        };
        assert_eq!(b.max_copies(), 5);
        // Ceiling below one copy still sends the message itself.
        let tight = EnergyBudget {
            per_message_uj_ceiling: 10.0,
            per_copy_uj: 85.0,
        };
        assert_eq!(tight.max_copies(), 1);
        // A huge ceiling never exceeds MAX_COPIES.
        let loose = EnergyBudget {
            per_message_uj_ceiling: 1e9,
            per_copy_uj: 85.0,
        };
        assert_eq!(loose.max_copies(), MAX_COPIES);
    }

    #[test]
    fn feedback_raises_and_lowers_k_within_budget() {
        let cfg = AdaptiveConfig::default();
        let ceiling = cfg.budget.per_message_uj_ceiling;
        let mut a = AdaptiveRepeat::new(cfg);
        let base = a.policy().copies;
        // Heavy loss: k rises, but energy stays under the ceiling.
        a.record_feedback(0.8);
        assert!(a.policy().copies > base);
        assert!(a.energy_per_message_uj() <= ceiling);
        // Total loss: target unreachable, spend the whole budget.
        a.record_feedback(1.0);
        assert_eq!(a.policy().copies, cfg.budget.max_copies());
        assert!(a.energy_per_message_uj() <= ceiling);
        // Channel recovers: back to base.
        a.record_feedback(0.0);
        assert_eq!(a.policy().copies, base);
    }

    #[test]
    fn backoff_is_bounded_and_symmetric() {
        let cfg = AdaptiveConfig {
            backoff_step: Duration::from_secs(5),
            max_backoff: Duration::from_secs(20),
            ..Default::default()
        };
        let mut a = AdaptiveRepeat::new(cfg);
        for _ in 0..10 {
            a.record_feedback(0.9);
        }
        assert_eq!(a.period_backoff(), Duration::from_secs(20));
        for _ in 0..10 {
            a.record_feedback(0.0);
        }
        assert_eq!(a.period_backoff(), Duration::ZERO);
    }

    #[test]
    fn blind_ramp_tracks_carrier_sense() {
        let mut a = AdaptiveRepeat::new(AdaptiveConfig::default());
        let base = a.policy().copies;
        let cap = AdaptiveConfig::default().budget.max_copies();
        for _ in 0..30 {
            a.observe_air_busy(true);
        }
        assert_eq!(a.policy().copies, cap);
        for _ in 0..30 {
            a.observe_air_busy(false);
        }
        assert_eq!(a.policy().copies, base);
        assert_eq!(a.period_backoff(), Duration::ZERO);
    }

    #[test]
    #[should_panic]
    fn zero_copies_rejected() {
        let mut medium = Medium::new(Default::default(), 1);
        let s = medium.attach(RadioConfig::default());
        let mut inj = Injector::new(DeviceIdentity::new(1), Instant::ZERO);
        inject_with_repeats(
            &mut inj,
            &mut medium,
            s,
            b"x",
            RepeatPolicy {
                copies: 0,
                spacing: Duration::ZERO,
            },
        );
    }
}
