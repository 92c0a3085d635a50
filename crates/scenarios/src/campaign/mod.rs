//! Fault-injection campaigns: a fleet driven through a scheduled fault
//! timeline, measuring robustness and what adaptation buys.
//!
//! A campaign runs N periodic Wi-LE devices against one gateway while a
//! [`FaultPlan`] disturbs the world in phases — bursty loss, duty-cycled
//! jammers, interferer bursts, gateway outages, clock-skew steps. The
//! runner reports, per fault phase: delivery ratio, recovery time after
//! the disturbance ends, and the energy cost per message — so the
//! adaptive repeat policy ([`wile::reliability::AdaptiveRepeat`]) can be
//! compared head-to-head against a static baseline on the same seeded
//! timeline.
//!
//! ## The runner
//!
//! [`run_campaign`] executes on the `wile-sim` actor kernel
//! ([`actors`]): each device is an actor, the gateway is an actor, and
//! the fault timeline and medium are kernel-owned shared state.
//! `tests/sim_diff.rs` pins its full [`CampaignReport`] across seeds,
//! adapt modes, and worker counts.
//!
//! ## Determinism and event ordering
//!
//! [`wile_radio::Medium`] requires transmissions in non-decreasing
//! on-air order. Every wake (first copies and repeats alike) is a
//! separate event, and the ESP32 model's wake → on-air latency is a
//! deterministic constant, so processing events in wake-time order
//! yields on-air times in the same order. The only other transmitter is
//! the gateway's feedback reply, which lands microseconds after the
//! beacon that solicited it; a guard skips the two-way exchange whenever
//! another event is scheduled inside that exchange's window.
//!
//! Channel faults are applied gateway-side: frames are pulled raw from
//! the medium, run through the seeded [`wile_radio::plan::FaultTimeline`] keyed by their
//! arrival instant, and only survivors reach `Gateway::ingest` (the
//! shared [`wile_sim::GatewayIngest`] stage). Two runs with the same
//! config therefore produce byte-identical reports.

pub mod actors;

pub use actors::run_campaign;

use std::collections::HashSet;
use wile::inject::{InjectReport, Injector};
use wile::linkhealth::{LinkHealthConfig, LinkStatus};
use wile::monitor::Gateway;
use wile::registry::DeviceIdentity;
use wile::reliability::{AdaptiveConfig, AdaptiveRepeat, RepeatPolicy};
use wile::twoway::RxWindow;
use wile_instrument::energy::energy_mj;
use wile_mac::WileMac;
use wile_radio::clock::DriftClock;
use wile_radio::medium::{Medium, RadioConfig, RadioId};
use wile_radio::plan::{Disturbance, FaultPhase, FaultPlan};
use wile_radio::time::{Duration, Instant};

/// Receive window announced by two-way (feedback) beacons.
pub(crate) const FEEDBACK_WINDOW: RxWindow = RxWindow {
    offset_us: 300,
    length_us: 2_000,
};
/// Minimum clearance to the next scheduled event for a two-way exchange
/// to proceed (the exchange occupies ~3 ms after the beacon).
pub(crate) const TWOWAY_GUARD: Duration = Duration::from_ms(10);

/// How devices choose their repeat policy during the campaign.
#[derive(Debug, Clone)]
pub enum AdaptMode {
    /// Fixed policy for the whole run (the baseline).
    Static(RepeatPolicy),
    /// Adaptive, driven by gateway loss reports received through a
    /// two-way window on every `every`-th message.
    Feedback {
        /// Adaptation tuning (targets, budget, backoff bounds).
        cfg: AdaptiveConfig,
        /// Open a feedback window on every `every`-th message (≥ 1).
        every: u32,
    },
    /// Adaptive with no return path: ramp on the device's own carrier
    /// sense only.
    Blind(AdaptiveConfig),
}

impl AdaptMode {
    fn describe(&self) -> String {
        match self {
            AdaptMode::Static(p) => format!("static k={}", p.copies),
            AdaptMode::Feedback { cfg, every } => format!(
                "adaptive/feedback (target {:.0}%, budget {:.0} µJ, every {} msgs)",
                cfg.target_delivery * 100.0,
                cfg.budget.per_message_uj_ceiling,
                every
            ),
            AdaptMode::Blind(cfg) => format!(
                "adaptive/blind (budget {:.0} µJ)",
                cfg.budget.per_message_uj_ceiling
            ),
        }
    }
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Fleet size; devices sit on a circle around the gateway.
    pub devices: usize,
    /// Circle radius, metres.
    pub radius_m: f64,
    /// Nominal per-device message period.
    pub period: Duration,
    /// Wake-to-wake gap between repeat copies of one message. Must be
    /// large enough to decorrelate copies from one loss burst.
    pub copy_spacing: Duration,
    /// Campaign length (messages stop being scheduled past this).
    pub duration: Duration,
    /// The disturbance schedule.
    pub plan: FaultPlan,
    /// Master seed (medium + clocks; the plan carries its own).
    pub seed: u64,
    /// Repeat-policy regime under test.
    pub mode: AdaptMode,
    /// Gateway link-health tuning.
    pub link: LinkHealthConfig,
    /// Gateway poll cadence.
    pub poll_every: Duration,
}

impl CampaignConfig {
    /// The demonstration campaign EXPERIMENTS.md's E8 row uses: four
    /// devices on a 6 s period running through a clean lead-in, a long
    /// bursty-loss phase, a duty-cycled jammer, a gateway outage, and a
    /// thermal clock-skew step.
    ///
    /// Copy spacing is 550 ms — just over one full wake cycle (each
    /// repeat copy reboots the ESP32, ~490 ms) and wider than the burst
    /// channel's 350 ms bad-state dwell, so a copy train straddles loss
    /// bursts instead of dying inside one.
    pub fn demo(seed: u64, mode: AdaptMode) -> Self {
        let s = |sec: u64| Instant::from_secs(sec);
        let plan = FaultPlan::new(
            vec![
                FaultPhase::new(
                    s(40),
                    s(240),
                    Disturbance::BurstLoss {
                        good_dwell: Duration::from_ms(150),
                        bad_dwell: Duration::from_ms(350),
                        loss_bad: 1.0,
                    },
                    "2.4GHz burst interference",
                ),
                FaultPhase::new(
                    s(260),
                    s(320),
                    Disturbance::Jammer {
                        cycle: Duration::from_ms(500),
                        on: Duration::from_ms(200),
                    },
                    "duty-cycled jammer",
                ),
                FaultPhase::new(s(340), s(360), Disturbance::GatewayOutage, "gateway reboot"),
                FaultPhase::new(
                    s(370),
                    s(390),
                    Disturbance::ClockSkew { extra_ppm: 60.0 },
                    "thermal clock step",
                ),
            ],
            seed ^ 0xFA17,
        );
        CampaignConfig {
            devices: 4,
            radius_m: 3.0,
            period: Duration::from_secs(6),
            copy_spacing: Duration::from_ms(550),
            duration: Duration::from_secs(400),
            plan,
            seed,
            mode,
            link: LinkHealthConfig::default(),
            poll_every: Duration::from_ms(500),
        }
    }
}

/// Outcome of one fault phase (or the fault-free remainder).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseOutcome {
    /// The phase label (or "(clear)" for unphased time).
    pub label: String,
    /// Disturbance tag (or "-" for clear time).
    pub tag: String,
    /// Messages whose first copy went on air inside the phase.
    pub sent: u64,
    /// Of those, messages the gateway delivered (any copy).
    pub delivered: u64,
    /// Time from phase end until every device had a delivery again
    /// (None: some device never recovered before the horizon, or the
    /// phase had no end inside the run).
    pub recovery: Option<Duration>,
}

impl PhaseOutcome {
    /// Delivery ratio within the phase (1.0 for an empty phase).
    pub fn ratio(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            self.delivered as f64 / self.sent as f64
        }
    }
}

/// Everything a campaign run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Human description of the policy regime.
    pub mode: String,
    /// Master seed the run used.
    pub seed: u64,
    /// Fleet size.
    pub devices: usize,
    /// Per-phase outcomes, in schedule order, with the clear-time
    /// bucket last.
    pub phases: Vec<PhaseOutcome>,
    /// Total messages (not copies) whose first copy went on air.
    pub messages_sent: u64,
    /// Messages delivered (any copy).
    pub messages_delivered: u64,
    /// Total beacon copies transmitted.
    pub copies_sent: u64,
    /// Feedback exchanges that completed (device heard a loss report).
    pub feedback_received: u64,
    /// Mean measured tx-window energy per message, µJ (copies × the
    /// §5.4 per-packet window; receive-window listening excluded).
    pub energy_uj_per_message: f64,
    /// Final per-device `(id, gateway loss estimate, status)`, sorted.
    pub device_health: Vec<(u32, f64, LinkStatus)>,
    /// Devices the gateway evicted as stale during the run, sorted.
    pub evicted: Vec<u32>,
}

impl CampaignReport {
    /// Overall message delivery ratio.
    pub fn delivery_ratio(&self) -> f64 {
        if self.messages_sent == 0 {
            1.0
        } else {
            self.messages_delivered as f64 / self.messages_sent as f64
        }
    }

    /// Mean copies per message.
    pub fn avg_copies(&self) -> f64 {
        if self.messages_sent == 0 {
            0.0
        } else {
            self.copies_sent as f64 / self.messages_sent as f64
        }
    }

    /// The outcome of the first phase with the given disturbance tag.
    pub fn phase(&self, tag: &str) -> Option<&PhaseOutcome> {
        self.phases.iter().find(|p| p.tag == tag)
    }

    /// Deterministic text rendering (byte-identical for equal seeds).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "fault campaign — {} devices, seed {}, policy: {}\n",
            self.devices, self.seed, self.mode
        ));
        s.push_str(&format!(
            "messages {}/{} delivered ({:.1}%), {:.2} copies/msg, {:.1} µJ/msg, {} feedback rounds\n",
            self.messages_delivered,
            self.messages_sent,
            self.delivery_ratio() * 100.0,
            self.avg_copies(),
            self.energy_uj_per_message,
            self.feedback_received,
        ));
        s.push_str("phase                          sent  delv  ratio    recovery\n");
        for p in &self.phases {
            let rec = match p.recovery {
                Some(d) => format!("{:.2} s", d.as_secs_f64()),
                None => "-".to_string(),
            };
            s.push_str(&format!(
                "{:<28} {:>6} {:>5} {:>6.1}%  {:>8}\n",
                p.label,
                p.sent,
                p.delivered,
                p.ratio() * 100.0,
                rec
            ));
        }
        for (id, loss, status) in &self.device_health {
            s.push_str(&format!(
                "device {:>3}: loss estimate {:>5.1}%  {:?}\n",
                id,
                loss * 100.0,
                status
            ));
        }
        if !self.evicted.is_empty() {
            s.push_str(&format!("evicted: {:?}\n", self.evicted));
        }
        s
    }
}

/// One device's runtime state, folded into the report by
/// [`summarize`]. The
/// injector, radio binding, and repeat-policy state all live inside a
/// single-device [`WileMac`] (ordinal 0); the fields left here are the
/// scenario's own bookkeeping (drift clock, skew, message ledger).
pub(crate) struct Dev {
    pub(crate) mac: WileMac,
    pub(crate) clock: DriftClock,
    pub(crate) applied_skew_ppm: f64,
    pub(crate) msg_count: u64,
    pub(crate) reports: Vec<InjectReport>,
    /// (seq, wake time of first copy) per message.
    pub(crate) msgs: Vec<(u16, Instant)>,
    /// Arrival times of this device's delivered messages, in order.
    pub(crate) arrivals: Vec<Instant>,
    pub(crate) feedback_received: u64,
}

impl Dev {
    pub(crate) fn policy(&self) -> RepeatPolicy {
        self.mac.policy(0)
    }

    /// Build device `i` of a campaign fleet: identity, drift clock, and
    /// adaptation state all derive from the config the same way in both
    /// runners.
    pub(crate) fn build(cfg: &CampaignConfig, i: usize, radio: RadioId) -> Dev {
        let mut mac = WileMac::new();
        mac.push_injector(
            Injector::new(DeviceIdentity::new(i as u32 + 1), Instant::ZERO),
            radio,
        );
        match &cfg.mode {
            AdaptMode::Static(p) => mac.set_static_policy(0, *p),
            AdaptMode::Feedback { cfg: a, .. } | AdaptMode::Blind(a) => {
                mac.set_adaptive(0, AdaptiveRepeat::new(*a))
            }
        }
        Dev {
            mac,
            clock: DriftClock::iot_grade(cfg.seed.wrapping_add(i as u64 * 7919)),
            applied_skew_ppm: 0.0,
            msg_count: 0,
            reports: Vec::new(),
            msgs: Vec::new(),
            arrivals: Vec::new(),
            feedback_received: 0,
        }
    }

    /// The circle position of device `i`.
    pub(crate) fn position(cfg: &CampaignConfig, i: usize) -> (f64, f64) {
        let angle = i as f64 / cfg.devices as f64 * std::f64::consts::TAU;
        (cfg.radius_m * angle.cos(), cfg.radius_m * angle.sin())
    }
}

pub(crate) const PAYLOAD: &[u8] = b"reading";

/// Validate the config and measure the wake cycle before a campaign
/// runs. Returns (wake→on-air latency, full cycle).
pub(crate) fn check_config(cfg: &CampaignConfig) -> (Duration, Duration) {
    assert!(cfg.devices >= 1);
    // The ESP32 wake → on-air latency is a deterministic constant;
    // measure it once so phase attribution can reason in on-air time.
    let (latency, cycle) = wake_to_air_latency();
    assert!(
        cfg.copy_spacing >= cycle,
        "copy spacing {} is shorter than the full wake cycle {} — the \
         device cannot finish one copy before the next is due",
        cfg.copy_spacing,
        cycle
    );
    assert!(
        cfg.period > cfg.copy_spacing.mul(super_max_copies(&cfg.mode) as u64),
        "period too short for the worst-case copy train"
    );
    (latency, cycle)
}

/// The largest copy count the configured mode can reach (for the
/// period-vs-copy-train sanity check).
fn super_max_copies(mode: &AdaptMode) -> u8 {
    match mode {
        AdaptMode::Static(p) => p.copies,
        AdaptMode::Feedback { cfg, .. } | AdaptMode::Blind(cfg) => cfg.budget.max_copies(),
    }
}

/// Measure the device model's deterministic wake → on-air latency and
/// its full wake-transmit-sleep cycle with a dry run on a scratch
/// medium. Each repeat copy re-runs the whole cycle (boot, init,
/// transmit, sleep entry — the paper's Fig. 3b trace), so copies cannot
/// be scheduled closer together than the cycle takes.
fn wake_to_air_latency() -> (Duration, Duration) {
    let mut medium = Medium::new(Default::default(), 0);
    let radio = medium.attach(RadioConfig::default());
    let mut inj = Injector::new(DeviceIdentity::new(1), Instant::ZERO);
    inj.inject(&mut medium, radio, PAYLOAD);
    let (_, start, _, _) = medium.transmissions().next().expect("dry run transmitted");
    (start.since(Instant::ZERO), inj.now().since(Instant::ZERO))
}

/// Fold the raw run state into the report.
pub(crate) fn summarize(
    cfg: &CampaignConfig,
    latency: Duration,
    devs: Vec<Dev>,
    gw: &mut Gateway,
    delivered: HashSet<(u32, u16)>,
    evicted: Vec<u32>,
    horizon: Instant,
) -> CampaignReport {
    let n_phases = cfg.plan.phases().len();
    let mut sent = vec![0u64; n_phases + 1]; // last bucket = clear time
    let mut ok = vec![0u64; n_phases + 1];
    let mut messages_sent = 0u64;
    let mut messages_delivered = 0u64;
    for (i, d) in devs.iter().enumerate() {
        let id = i as u32 + 1;
        for &(seq, wake) in &d.msgs {
            let bucket = cfg.plan.phase_index(wake + latency).unwrap_or(n_phases);
            sent[bucket] += 1;
            messages_sent += 1;
            if delivered.contains(&(id, seq)) {
                ok[bucket] += 1;
                messages_delivered += 1;
            }
        }
    }

    let mut phases: Vec<PhaseOutcome> = cfg
        .plan
        .phases()
        .iter()
        .enumerate()
        .map(|(i, ph)| {
            // Recovery: every device heard from again after phase end.
            let recovery = devs
                .iter()
                .map(|d| d.arrivals.iter().find(|&&a| a >= ph.end).copied())
                .collect::<Option<Vec<Instant>>>()
                .map(|firsts| {
                    firsts
                        .into_iter()
                        .map(|a| a.since(ph.end))
                        .max()
                        .unwrap_or(Duration::ZERO)
                });
            PhaseOutcome {
                label: ph.label.clone(),
                tag: ph.disturbance.tag().to_string(),
                sent: sent[i],
                delivered: ok[i],
                recovery,
            }
        })
        .collect();
    phases.push(PhaseOutcome {
        label: "(clear)".to_string(),
        tag: "-".to_string(),
        sent: sent[n_phases],
        delivered: ok[n_phases],
        recovery: None,
    });

    let mut copies_sent = 0u64;
    let mut total_uj = 0.0;
    let mut feedback_received = 0u64;
    for d in &devs {
        copies_sent += d.reports.len() as u64;
        feedback_received += d.feedback_received;
        let inj = d.mac.injector(0);
        let model = inj.model();
        for r in &d.reports {
            let (from, to) = r.tx_window();
            total_uj += energy_mj(inj.trace(), &model, from, to) * 1000.0;
        }
    }
    let energy_uj_per_message = if messages_sent == 0 {
        0.0
    } else {
        total_uj / messages_sent as f64
    };

    let device_health = {
        let mut v = Vec::new();
        for i in 0..cfg.devices {
            let id = i as u32 + 1;
            let loss = gw
                .link_health()
                .and_then(|h| h.loss_estimate(id))
                .unwrap_or(1.0);
            let status = gw
                .link_health_mut()
                .map(|h| h.status(id, horizon))
                .unwrap_or(LinkStatus::Offline);
            v.push((id, loss, status));
        }
        v
    };

    CampaignReport {
        mode: cfg.mode.describe(),
        seed: cfg.seed,
        devices: cfg.devices,
        phases,
        messages_sent,
        messages_delivered,
        copies_sent,
        feedback_received,
        energy_uj_per_message,
        device_health,
        evicted,
    }
}
