//! Chaos-metro scenario: the E11 metro deployment driven through an
//! infrastructure fault campaign (experiment E13).
//!
//! Same world as [`crate::metro`] — a grid of gateways blanketing a
//! hall of beaconing devices, all feeding one
//! [`GatewayCluster`](wile_cluster::GatewayCluster) — but the
//! infrastructure itself now fails on schedule: gateway processes
//! crash and restart (resuming from periodic checkpoints), backhauls
//! partition and shed after bounded retries, the aggregator sheds under
//! overload, and the air can drop out independently on the *same*
//! unified timeline ([`wile_cluster::split_unified`]), so "radio
//! outage" and "process crash" are distinct, separately-attributed
//! mechanisms driven by one clock.
//!
//! The runner audits two invariants continuously:
//!
//! * **Extended conservation**, after *every* poll: `delivered +
//!   suppressions + queue_drops + shed + lost_in_crash + buffered ==
//!   hears`. Once every fault window has closed and the partitions have
//!   flushed, `buffered` is zero and the end-of-run ledger is exactly
//!   the ISSUE's law.
//! * **At-most-once**: no `(device, seq)` is ever delivered twice, no
//!   matter how lanes crash, restore stale checkpoints, or flush
//!   partition backlogs — the aggregator's dedup never dies with a
//!   lane.
//!
//! The differential oracle (`tests/chaos_diff.rs`) proves that with an
//! *empty* fault plan the whole chaos path is byte-identical to plain
//! [`crate::metro::run_metro`] — report and FNV delivery digest — and
//! that every faulted run is byte-identical across worker counts.

use crate::metro::{
    build_world, cluster_config, drive, finish_run, instrumented_cluster, ClusterRun, ClusterSink,
    FrameTap, MetroConfig, MetroEv, MetroReport,
};
use std::collections::HashSet;
use wile_cluster::{
    split_unified, ClusterConfig, ClusterDisturbance, ClusterFaultPlan, ClusterStats, LaneEvent,
    LaneEventRecord, PartitionPolicy, UnifiedPhase,
};
use wile_radio::plan::Disturbance;
use wile_radio::time::{Duration, Instant};
use wile_sim::kernel::{Actor, Ctx};
use wile_telemetry::Telemetry;

/// Chaos campaign configuration: a metro world plus the two halves of
/// a unified fault timeline and the recovery knobs.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The underlying metro world; air-side faults (from the unified
    /// timeline) ride in `metro.faults`.
    pub metro: MetroConfig,
    /// The infrastructure half of the timeline.
    pub infra: ClusterFaultPlan,
    /// Checkpoint cadence for warm restarts (`None` = cold restarts).
    pub checkpoint_every: Option<Duration>,
    /// Partition store-and-forward policy.
    pub partition: PartitionPolicy,
}

impl ChaosConfig {
    /// The E13 configuration: the full E11 metro world (8 gateways ×
    /// 20,000 devices × 1 simulated hour) through a five-phase unified
    /// campaign — two process crashes (one restored from a 300 s
    /// checkpoint), a 5-minute backhaul partition, an aggregator
    /// overload window, and an air-side radio outage, in that order.
    pub fn metro(seed: u64) -> Self {
        let mut metro = MetroConfig::metro(seed);
        let (air, infra) = split_unified(
            vec![
                UnifiedPhase::infra(
                    Instant::from_secs(400),
                    Instant::from_secs(700),
                    ClusterDisturbance::LaneCrash { lane: 2 },
                    "crash-gw2",
                ),
                UnifiedPhase::infra(
                    Instant::from_secs(900),
                    Instant::from_secs(1_200),
                    ClusterDisturbance::BackhaulPartition { lane: 5 },
                    "partition-gw5",
                ),
                UnifiedPhase::infra(
                    Instant::from_secs(1_500),
                    Instant::from_secs(1_800),
                    ClusterDisturbance::AggregatorOverload {
                        admit_per_round: 4_000,
                    },
                    "overload",
                ),
                UnifiedPhase::infra(
                    Instant::from_secs(2_100),
                    Instant::from_secs(2_400),
                    ClusterDisturbance::LaneCrash { lane: 0 },
                    "crash-gw0",
                ),
                UnifiedPhase::air(
                    Instant::from_secs(2_700),
                    Instant::from_secs(2_850),
                    Disturbance::GatewayOutage,
                    "radio-outage",
                ),
            ],
            seed,
        );
        metro.faults = Some(air);
        ChaosConfig {
            metro,
            infra,
            checkpoint_every: Some(Duration::from_secs(300)),
            partition: PartitionPolicy::default(),
        }
    }

    /// A small campaign over the smoke metro world, for tests: crash,
    /// partition, overload, and air outage compressed into 300 s.
    pub fn smoke(seed: u64) -> Self {
        let mut metro = MetroConfig::smoke(seed);
        let (air, infra) = split_unified(
            vec![
                UnifiedPhase::infra(
                    Instant::from_secs(40),
                    Instant::from_secs(80),
                    ClusterDisturbance::LaneCrash { lane: 0 },
                    "crash-gw0",
                ),
                UnifiedPhase::infra(
                    Instant::from_secs(110),
                    Instant::from_secs(160),
                    ClusterDisturbance::BackhaulPartition { lane: 1 },
                    "partition-gw1",
                ),
                UnifiedPhase::infra(
                    Instant::from_secs(190),
                    Instant::from_secs(220),
                    ClusterDisturbance::AggregatorOverload {
                        admit_per_round: 40,
                    },
                    "overload",
                ),
                UnifiedPhase::air(
                    Instant::from_secs(240),
                    Instant::from_secs(260),
                    Disturbance::GatewayOutage,
                    "radio-outage",
                ),
            ],
            seed,
        );
        metro.faults = Some(air);
        ChaosConfig {
            metro,
            infra,
            checkpoint_every: Some(Duration::from_secs(30)),
            partition: PartitionPolicy {
                buffer: 512,
                max_retries: 4,
            },
        }
    }

    /// The differential-oracle configuration: the given metro world
    /// with the fault layer engaged but *empty* — no infra phases, no
    /// checkpointing. The oracle proves this is byte-identical to
    /// running `metro` without the fault layer at all.
    pub fn no_faults(metro: MetroConfig) -> Self {
        ChaosConfig {
            metro,
            infra: ClusterFaultPlan::empty(),
            checkpoint_every: None,
            partition: PartitionPolicy::default(),
        }
    }
}

/// Per-fault-phase slice of the run's counters (cluster-wide deltas of
/// every poll landing inside the phase window).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseOutcome {
    /// Phase label from the plan.
    pub label: String,
    /// Mechanism tag: `crash` / `partition` / `overload` for infra
    /// phases, the air disturbance tag for air phases.
    pub tag: &'static str,
    /// Window start.
    pub start: Instant,
    /// Window end.
    pub end: Instant,
    /// Messages delivered cluster-wide during the window.
    pub delivered: u64,
    /// Reports offered during the window.
    pub hears: u64,
    /// Dedup suppressions during the window.
    pub suppressions: u64,
    /// Queue tail-drops during the window.
    pub queue_drops: u64,
    /// Fault-machinery sheds during the window.
    pub shed: u64,
    /// Reports destroyed by crashes during the window.
    pub lost_in_crash: u64,
}

impl PhaseOutcome {
    /// Delivered over unique messages offered during the window
    /// (`hears` with duplicate copies folded out).
    pub fn delivery_ratio(&self) -> f64 {
        let unique = self.hears.saturating_sub(self.suppressions).max(1);
        self.delivered as f64 / unique as f64
    }
}

/// How one crash window resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneRecovery {
    /// Which lane crashed.
    pub lane: usize,
    /// Crash instant (plan window start).
    pub crashed_at: Instant,
    /// Restart instant (plan window end).
    pub restarted_at: Instant,
    /// Whether the restart restored a checkpoint (warm) or came up
    /// cold.
    pub restored: bool,
    /// First poll instant after the restart at which the lane won a
    /// delivery election again — `None` if it never did before the
    /// horizon.
    pub recovered_at: Option<Instant>,
}

impl LaneRecovery {
    /// Time from restart to the first post-restart delivery win.
    pub fn recovery_after_restart(&self) -> Option<Duration> {
        self.recovered_at.map(|t| t.since(self.restarted_at))
    }
}

/// Everything an E13 run measured: the base metro report plus the
/// fault-phase breakdown and recovery audit.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// The base report, same shape (and with an empty plan, same
    /// bytes) as [`crate::metro::run_metro`]'s.
    pub metro: MetroReport,
    /// Per-fault-phase counter slices, in timeline order.
    pub phases: Vec<PhaseOutcome>,
    /// One entry per crash window, with recovery timing.
    pub recoveries: Vec<LaneRecovery>,
    /// Lane transitions in `(at, lane)` order, as applied.
    pub lane_events: Vec<LaneEventRecord>,
    /// `(device, seq)` pairs delivered more than once — the at-most-
    /// once audit; always zero (asserted).
    pub duplicate_deliveries: u64,
}

/// Running totals the sink diffs between polls for phase attribution.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    delivered: u64,
    hears: u64,
    suppressions: u64,
    queue_drops: u64,
    shed: u64,
    lost_in_crash: u64,
}

impl Totals {
    fn of(s: &ClusterStats) -> Self {
        Totals {
            delivered: s.delivered,
            hears: s.total_hears(),
            suppressions: s.total_suppressions(),
            queue_drops: s.total_drops(),
            shed: s.total_shed(),
            lost_in_crash: s.total_lost_in_crash(),
        }
    }
}

/// An in-flight crash-recovery measurement.
struct RecoveryProbe {
    crashed_at: Instant,
    restarted_at: Option<Instant>,
    restored: bool,
    /// Lane wins before the poll that observed the restart.
    wins_baseline: u64,
    done: bool,
}

/// The chaos sink: the metro cluster sink itself (the empty-plan
/// oracle depends on it), plus lane-event tracing, per-phase
/// accounting, and the at-most-once / conservation audits.
struct ChaosSink {
    sink: ClusterSink,
    seen: HashSet<(u32, u16)>,
    dupes: u64,
    prev: Totals,
    phases: Vec<PhaseOutcome>,
    lane_events: Vec<LaneEventRecord>,
    probes: Vec<Option<RecoveryProbe>>,
    recoveries: Vec<LaneRecovery>,
}

/// Span/trace key for a lane: distinct from every actor id (actors
/// allocate upward from 0, lanes downward from `u32::MAX`).
fn lane_key(lane: usize) -> u32 {
    u32::MAX - lane as u32
}

impl Actor<MetroEv> for ChaosSink {
    fn on_event(&mut self, now: Instant, _ev: MetroEv, ctx: &mut Ctx<'_, MetroEv>) {
        let got = self.sink.poll(now, ctx);
        // At-most-once audit across every crash/restore/flush.
        for d in &got {
            if !self.seen.insert((d.device_id, d.seq)) {
                self.dupes += 1;
            }
        }

        // Conservation must hold after *every* poll, mid-fault
        // included (the buffered term is what keeps partitions honest).
        let cluster = &mut self.sink.run.cluster;
        let stats = cluster.stats();
        assert!(
            stats.conserves_offered_load(),
            "extended conservation violated at {now:?}: {stats:?}"
        );

        // Lane transitions → trace events, spans, recovery probes.
        for rec in cluster.take_lane_events() {
            match &rec.event {
                LaneEvent::Down { lost, .. } => {
                    ctx.emit("lane.down", rec.lane as u64);
                    ctx.span_enter_for(lane_key(rec.lane), "lane.down");
                    ctx.telemetry.trace_emit(
                        rec.at,
                        lane_key(rec.lane),
                        "lane.lost_in_crash",
                        *lost,
                    );
                    self.probes[rec.lane] = Some(RecoveryProbe {
                        crashed_at: rec.at,
                        restarted_at: None,
                        restored: false,
                        wins_baseline: self.prev.delivered, // placeholder until Up
                        done: false,
                    });
                }
                LaneEvent::Up { restored } => {
                    ctx.emit("lane.up", rec.lane as u64);
                    ctx.span_exit_for(lane_key(rec.lane));
                    if let Some(p) = self.probes[rec.lane].as_mut() {
                        p.restarted_at = Some(rec.at);
                        p.restored = *restored;
                    }
                }
                LaneEvent::Checkpoint => {
                    ctx.emit("lane.checkpoint", rec.lane as u64);
                }
                LaneEvent::PartitionStart => {
                    ctx.emit("partition.start", rec.lane as u64);
                    ctx.span_enter_for(lane_key(rec.lane), "lane.partitioned");
                }
                LaneEvent::PartitionEnd { flushed } => {
                    ctx.emit("partition.end", rec.lane as u64);
                    ctx.span_exit_for(lane_key(rec.lane));
                    ctx.telemetry.trace_emit(
                        rec.at,
                        lane_key(rec.lane),
                        "lane.partition_flushed",
                        *flushed as u64,
                    );
                }
            }
            self.lane_events.push(rec);
        }

        // Phase attribution at poll granularity: this poll's deltas
        // land in every phase window covering [start, end]. The poll
        // *at* a window's start carries its onset (a crash's queue
        // wipe), the poll at its end the tail (a partition's flush, a
        // crash's restart).
        let t = Totals::of(&stats);
        for p in self.phases.iter_mut() {
            if now >= p.start && now <= p.end {
                p.delivered += t.delivered - self.prev.delivered;
                p.hears += t.hears - self.prev.hears;
                p.suppressions += t.suppressions - self.prev.suppressions;
                p.queue_drops += t.queue_drops - self.prev.queue_drops;
                p.shed += t.shed - self.prev.shed;
                p.lost_in_crash += t.lost_in_crash - self.prev.lost_in_crash;
            }
        }

        // Recovery: the first poll (restart observation included) where
        // the restarted lane wins elections again. The baseline is the
        // lane's wins before the restart-observing poll — a crashed
        // lane cannot win mid-window, so any increase is post-restart.
        for (lane, slot) in self.probes.iter_mut().enumerate() {
            if let Some(p) = slot {
                match p.restarted_at {
                    None => p.wins_baseline = stats.lanes[lane].wins,
                    Some(restarted_at) if !p.done => {
                        let recovered = stats.lanes[lane].wins > p.wins_baseline;
                        if recovered || now >= self.sink.train.horizon() {
                            self.recoveries.push(LaneRecovery {
                                lane,
                                crashed_at: p.crashed_at,
                                restarted_at,
                                restored: p.restored,
                                recovered_at: recovered.then_some(now),
                            });
                            p.done = true;
                        }
                    }
                    Some(_) => {}
                }
            }
        }
        self.prev = t;
    }
}

/// Run the chaos campaign with up to `workers` aggregation threads.
/// Deliveries, digest, and every counter are byte-identical at any
/// `workers` setting; with an empty plan the result equals
/// [`crate::metro::run_metro`] byte for byte.
///
/// The run's telemetry folds into `tel` (everything the metro runner
/// records, plus crash/recovery/shed counters and `lane.down` /
/// `lane.partitioned` spans; pass [`Telemetry::off`] to record
/// nothing), and an optional [`FrameTap`] observes the raw per-lane
/// frame stream (the `.wcap` capture hook, firing on every frame the
/// radios hear — including frames a crashed lane's process never
/// ingests). Neither perturbs the report.
pub fn run_chaos(
    cfg: &ChaosConfig,
    workers: usize,
    tel: &mut Telemetry,
    tap: Option<FrameTap>,
) -> ChaosReport {
    let mut world = build_world(&cfg.metro);
    let lanes = world.gw_radios.len();
    let mut cluster = instrumented_cluster(
        &mut world,
        ClusterConfig {
            partition: cfg.partition,
            checkpoint_every: cfg.checkpoint_every,
            ..cluster_config(cfg.metro.queue_capacity, cfg.metro.stale_after)
        },
        tel,
    );
    cluster.set_faults(cfg.infra.clone());

    // Phase windows from both halves of the unified timeline, in
    // timeline order.
    let blank = |label: &str, tag, start, end| PhaseOutcome {
        label: label.to_string(),
        tag,
        start,
        end,
        delivered: 0,
        hears: 0,
        suppressions: 0,
        queue_drops: 0,
        shed: 0,
        lost_in_crash: 0,
    };
    let mut phases: Vec<PhaseOutcome> = cfg
        .infra
        .phases()
        .iter()
        .map(|p| blank(&p.label, p.disturbance.tag(), p.start, p.end))
        .collect();
    if let Some(air) = &cfg.metro.faults {
        phases.extend(
            air.phases()
                .iter()
                .map(|p| blank(&p.label, p.disturbance.tag(), p.start, p.end)),
        );
    }
    phases.sort_by_key(|a| (a.start, a.end));

    let train = cfg.metro.poll_train();
    let run = ClusterRun::new(cluster, workers, cfg.metro.keep_deliveries);
    let chaos = ChaosSink {
        sink: ClusterSink::new(run, train, tap),
        seen: HashSet::new(),
        dupes: 0,
        prev: Totals::default(),
        phases,
        lane_events: Vec::new(),
        probes: (0..lanes).map(|_| None).collect(),
        recoveries: Vec::new(),
    };
    let ChaosSink {
        sink,
        dupes,
        phases,
        lane_events,
        recoveries,
        ..
    } = drive(&mut world, train, chaos);
    let metro = finish_run(&cfg.metro, world, sink, tel, |reg| {
        reg.counter_set("chaos.lane_events", &[], lane_events.len() as u64);
        reg.counter_set("chaos.duplicates", &[], dupes);
        reg.counter_set("chaos.recoveries", &[], recoveries.len() as u64);
    });
    assert_eq!(dupes, 0, "at-most-once violated");
    let stats = &metro.stats;
    if cfg.infra.end() <= train.horizon() {
        // Every partition has healed and flushed, so the buffered term
        // of the law `finish_run` asserted is zero.
        assert_eq!(stats.total_buffered(), 0, "backhaul not drained: {stats:?}");
    }
    ChaosReport {
        metro,
        phases,
        recoveries,
        lane_events,
        duplicate_deliveries: dupes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metro::run_metro;

    #[test]
    fn smoke_chaos_conserves_and_recovers() {
        let r = run_chaos(&ChaosConfig::smoke(42), 1, &mut Telemetry::off(), None);
        assert_eq!(r.duplicate_deliveries, 0);
        assert!(r.metro.stats.conserves_offered_load());
        // The crash destroyed or shed real work...
        assert!(r.metro.stats.total_lost_in_crash() > 0 || r.metro.stats.total_shed() > 0);
        assert_eq!(r.metro.stats.lanes[0].crashes, 1);
        assert_eq!(r.metro.stats.lanes[0].restarts, 1);
        // ...and the lane came back and won again, promptly.
        assert_eq!(r.recoveries.len(), 1);
        let rec = &r.recoveries[0];
        assert_eq!(rec.lane, 0);
        assert!(rec.restored, "30 s checkpoints cover a 40 s crash");
        let lag = rec.recovery_after_restart().expect("lane recovered");
        assert!(
            lag <= Duration::from_secs(10),
            "recovery within two polls: {lag:?}"
        );
        // Orphaned devices were re-adopted.
        assert!(r.metro.stats.recovered > 0, "{:?}", r.metro.stats);
        assert!(r.metro.stats.checkpoints > 0);
        // Every infra phase saw traffic, and the mechanisms are
        // attributed distinctly.
        assert_eq!(r.phases.len(), 4);
        let by_tag = |tag: &str| r.phases.iter().find(|p| p.tag == tag).unwrap();
        for p in &r.phases {
            if p.tag != "outage" {
                assert!(p.hears > 0, "vacuous phase {p:?}");
            }
        }
        assert!(by_tag("crash").lost_in_crash > 0);
        assert!(by_tag("overload").shed > 0);
        // A radio outage is the *other* failure mode: frames die on the
        // air before they are ever heard, so — beyond the onset poll,
        // which still carries the pre-outage interval — nothing reaches
        // the hears ledger at all, unlike every infra fault, which is
        // accounted for after the hear.
        let outage = by_tag("outage");
        for tag in ["crash", "partition", "overload"] {
            assert!(
                outage.hears < by_tag(tag).hears,
                "outage should hear less than any infra phase: {outage:?} vs {tag}"
            );
        }
        assert_eq!(outage.lost_in_crash, 0);
        assert_eq!(outage.shed, 0);
    }

    #[test]
    fn empty_plan_matches_plain_metro_byte_for_byte() {
        let metro = run_metro(&MetroConfig::smoke(7), 1);
        let chaos = run_chaos(
            &ChaosConfig::no_faults(MetroConfig::smoke(7)),
            1,
            &mut Telemetry::off(),
            None,
        );
        assert_eq!(chaos.metro, metro);
        assert_eq!(chaos.metro.delivery_digest, metro.delivery_digest);
        assert!(chaos.phases.is_empty());
        assert!(chaos.lane_events.is_empty());
        assert!(chaos.recoveries.is_empty());
    }

    #[test]
    fn chaos_is_worker_count_independent() {
        let base = run_chaos(&ChaosConfig::smoke(9), 1, &mut Telemetry::off(), None);
        for w in [2, 4] {
            assert_eq!(
                run_chaos(&ChaosConfig::smoke(9), w, &mut Telemetry::off(), None),
                base,
                "workers {w}"
            );
        }
    }
}
